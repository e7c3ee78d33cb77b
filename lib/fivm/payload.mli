(** Payloads for incremental view maintenance. A view tree's payload is a
    ring whose elements live in mutable buffers: the tree owns every
    buffer it reads or writes and accumulates into them in place, so a
    steady-state update allocates no ring elements. *)

(** The in-place ring protocol {!View_tree.Make} runs on. The ring's one
    is never materialised: the tree treats an empty product symbolically,
    reading its first factor in place of multiplying by one. *)
module type S = sig
  type t
  (** A mutable buffer holding one ring element. *)

  val mul : t -> t -> into:t -> unit
  (** [mul a b ~into] sets [into] to the product [a * b], in that operand
      order. [into] must alias neither operand. *)

  val add : t -> into:t -> unit
  (** [add x ~into] sets [into] to [into + x]. *)

  val scale : int -> t -> unit
  (** [scale m x] sets [x] to its m-fold sum, [m * x] (any sign). *)

  val is_zero : t -> bool
  (** EXACT additive-identity test (no tolerance): view trees drop entries
      whose payload cancelled to zero, so churn that nets a group to zero
      multiplicity leaves no 0-weight residue behind. *)

  val copy : t -> into:t -> unit
  (** [copy x ~into] overwrites [into] with [x]. *)
end

(** Scalar payload (the higher-order strategy's per-aggregate trees). *)
module Float : sig
  include S

  val make : float -> t
  val get : t -> float
  val set : t -> float -> unit
end

(** The covariance ring at dimension d, unboxed: (c, s, Q) as one float
    array of 1 + d + d², laid out [c | s | Q row-major]. Every kernel
    performs {!Rings.Covariance}'s float operations in the same order, so
    results are bit-identical to the persistent ring's. *)
module Cov : sig
  include S with type t = float array

  val zero : int -> t
  (** A fresh zero buffer of dimension d. *)

  val dim : t -> int

  val of_tuple : (int * int) array -> Relational.Tuple.t -> into:t -> unit
  (** [of_tuple owned tuple ~into] writes {!Rings.Covariance.of_tuple}[ xs],
      where [xs.(i)] is column [p] of [tuple] for each [(i, p)] in [owned]
      and [0.0] elsewhere. *)

  val to_covariance : t -> Rings.Covariance.t
  (** A fresh persistent copy. *)

  val of_covariance : Rings.Covariance.t -> t
  (** A fresh buffer holding the triple. *)
end

(** Dimension-agnostic persistent covariance ring, for persistent-ring
    users (the factorised evaluator, AC/DC, checkpoint payloads): [`Zero]
    and [`One] are symbolic, so no static dimension is needed (it is read
    off the first concrete element). The dimension-less combinations
    ([`One + `One], [neg `One], [smul m `One]) are rejected. *)
module Cov_dyn : sig
  include Rings.Sig.RING with type t = [ `Zero | `One | `Elem of Rings.Covariance.t ]

  val smul : int -> t -> t
  (** m-fold sum ([neg] for negative m). *)

  val is_zero : t -> bool
  (** Exact, as {!S.is_zero}. *)
end

val cov_elem : int -> [ `Zero | `One | `Elem of Rings.Covariance.t ] -> Rings.Covariance.t
(** Concretise a dynamic payload at the given dimension. *)
