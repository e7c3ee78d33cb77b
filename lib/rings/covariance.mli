(** The covariance ring (paper Section 5.2): triples (c, s, Q) of
    [SUM(1)], [SUM(x_i)] and [SUM(x_i * x_j)] over a fixed feature dimension,
    with the ring product that shares counts into sums and sums into
    products. *)

open Util

type t = { c : float; s : Vec.t; q : Mat.t }

val dim : t -> int
val zero : int -> t
(** [zero n] for dimension [n]. *)

val one : int -> t
val add : t -> t -> t
val neg : t -> t
val smul : float -> t -> t
(** Scalar multiple (= repeated [add]). *)

val mul : t -> t -> t
(** The covariance-ring product of Section 5.2. *)

val lift : int -> int -> float -> t
(** [lift n i x] is the ring image [(1, x*e_i, x^2*E_ii)] of feature [i]'s
    value [x] in dimension [n]. *)

val of_tuple : float array -> t
(** [(1, x, x x^T)] — the product of the lifts of all features of one tuple,
    built directly. *)

(** Mutable accumulator for tight fold loops (no per-tuple allocation). *)
module Acc : sig
  type acc

  val create : int -> acc
  val add_tuple : acc -> ?multiplicity:float -> float array -> unit
  val add_triple : acc -> t -> unit
  val freeze : acc -> t
end

val is_zero : t -> bool
(** Exact structural zero (every component [= 0.0], either float zero; no
    tolerance) — safe to use for dropping exactly-cancelled view entries
    without perturbing bit-identity. *)

val equal : ?eps:float -> t -> t -> bool
(** Absolute tolerance. *)

val equal_rel : ?eps:float -> t -> t -> bool
(** Relative tolerance; robust to accumulation-order differences on
    large-magnitude sums. *)

val equal_bits : t -> t -> bool
(** Bitwise: same dimension, every component equal by bit pattern. The
    check for exact (dyadic-lattice) arithmetic, where maintained, sharded
    and recovered triples must match a recompute to the last bit. *)

val count : t -> float
val sums : t -> Vec.t
val products : t -> Mat.t

val moment_matrix : t -> Mat.t
(** The (n+1)x(n+1) symmetric moment matrix [[c, s^T]; [s, Q]] with the
    intercept in slot 0 — the input to gradient-descent linear regression. *)

val encode : Buffer.t -> t -> unit
(** Binary codec for checkpoint payloads; floats are stored by bit pattern,
    so {!decode} returns a bit-identical triple. *)

val decode : Relational.Codec.reader -> t
(** @raise Relational.Codec.Decode_error on malformed input. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

module Make (_ : sig
  val n : int
end) : Sig.RING with type t = t

val make_ring : int -> (module Sig.RING with type t = t)
(** First-class ring instance at the given dimension. *)
