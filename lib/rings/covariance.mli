(** The covariance ring (paper Section 5.2): triples (c, s, Q) of
    [SUM(1)], [SUM(x_i)] and [SUM(x_i * x_j)] over a fixed feature dimension,
    with the ring product that shares counts into sums and sums into
    products.

    A triple of dimension n is one float array of 1 + n + n² cells, laid
    out [c | s | Q row-major]. The in-place kernels ([mul_into],
    [mul_disjoint], [add_into], [scale], [copy], [is_zero],
    [of_tuple_into]) are the ring's only arithmetic: F-IVM's view trees
    run them on buffers they own, and every persistent operation ([add],
    [mul], [of_tuple], [lift], the {!Make} instance) allocates a fresh
    array and runs the same kernel. *)

type t = float array

val dim : t -> int

val zero : int -> t
(** [zero n], a fresh zero triple of dimension [n]. *)

val one : int -> t

(** {2 In-place kernels} *)

val mul_into : t -> t -> into:t -> unit
(** [mul_into a b ~into] sets [into] to the ring product [a * b], in that
    operand order. [into] must alias neither operand.
    @raise Invalid_argument on a dimension mismatch or an alias. *)

type disjoint
(** A product plan for operands over disjoint feature sets. *)

val disjoint : int array -> int array -> disjoint
(** [disjoint pa pb] multiplies an operand over [Array.length pa] features
    by one over [Array.length pb], into their union: feature [i] of the
    first is feature [pa.(i)] of the product, feature [j] of the second
    [pb.(j)].
    @raise Invalid_argument unless [pa] and [pb] together hold each of
    [0 .. |pa| + |pb| - 1] once. *)

val mul_disjoint : disjoint -> t -> t -> into:t -> unit
(** [mul_disjoint plan a b ~into] sets [into] to [a * b], each cell to the
    bits {!mul_into} gives on [a] and [b] embedded at [into]'s dimension
    ({!embed}, +0.0 outside their features), signed zeros included. It
    touches only the product's cells: a count, two scaled sum vectors, two
    scaled diagonal blocks and two outer-product blocks of sums. [into]
    must alias neither operand.
    @raise Invalid_argument on a size that does not fit the plan, or an
    alias. *)

val add_into : t -> into:t -> unit
(** [add_into x ~into] sets [into] to [into + x]. *)

val scale : int -> t -> unit
(** [scale m x] sets [x] to its m-fold sum, [m * x] (any sign). *)

val copy : t -> into:t -> unit
(** [copy x ~into] overwrites [into] with [x]. *)

val is_zero : t -> bool
(** Exact structural zero (every component [= 0.0], either float zero; no
    tolerance) — safe to use for dropping exactly-cancelled view entries
    without perturbing bit-identity. *)

val of_tuple_into : float array -> into:t -> unit
(** [of_tuple_into xs ~into] sets [into] to [(1, xs, xs xs^T)], the
    product of the lifts of all features of one tuple. *)

(** {2 Persistent operations} *)

val add : t -> t -> t
val mul : t -> t -> t
(** The covariance-ring product of Section 5.2. *)

val lift : int -> int -> float -> t
(** [lift n i x] is the ring image [(1, x*e_i, x^2*E_ii)] of feature [i]'s
    value [x] in dimension [n]. *)

val of_tuple : float array -> t
(** [(1, x, x x^T)], by {!of_tuple_into}. *)

(** Mutable accumulator folding tuples by the textbook axpy and rank-1
    updates, with no per-tuple allocation: the flat reference that tests
    check the ring-based engines against. *)
module Acc : sig
  type acc

  val create : int -> acc
  val add_tuple : acc -> ?multiplicity:float -> float array -> unit
  val freeze : acc -> t
end

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

val sum : t -> int -> float
(** [sum x i] is [SUM(x_i)], for [0 <= i < dim x]. *)

val product : t -> int -> int -> float
(** [product x i j] is [SUM(x_i * x_j)]. *)

val moment_matrix : t -> Util.Mat.t
(** The (n+1)x(n+1) symmetric moment matrix [[c, s^T]; [s, Q]] with the
    intercept in slot 0 — the input to gradient-descent linear regression. *)

val init : int -> (int -> int -> float) -> t
(** [init n f] is the triple of dimension [n] whose moment matrix has
    [f i j] at [(i, j)]: the count at [(0, 0)], [SUM(x_j)] at [(0, j+1)]
    and [SUM(x_i * x_j)] at [(i+1, j+1)]. Cells [(i, 0)] for [i > 0] are
    not read. *)

val embed : int -> int array -> t -> t
(** [embed n features x]: [x], whose feature [i] is feature [features.(i)]
    of dimension [n], as a fresh triple of dimension [n], +0.0 in every
    cell outside its features.
    @raise Invalid_argument on a size or feature out of range. *)

val restrict : int array -> t -> t option
(** The inverse of {!embed}: [x]'s cells over the given features, in their
    order, as a fresh triple, or [None] when a cell outside them is nonzero
    (either float zero counts as zero).
    @raise Invalid_argument on a feature out of range or repeated. *)

val encode : Buffer.t -> t -> unit
(** Binary codec for checkpoint payloads: the dimension, then c, s and Q
    row-major, floats by bit pattern, so {!decode} returns a bit-identical
    triple. *)

val decode : Relational.Codec.reader -> t
(** Checks that every cell is present before allocating.
    @raise Relational.Codec.Decode_error on malformed input, located. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

module Make (_ : sig
  val n : int
end) : Sig.RING with type t = t
(** The ring at a fixed dimension. Its [zero] and [one] are shared, and
    no operation writes an operand. *)

val make_ring : int -> (module Sig.RING with type t = t)
(** First-class ring instance at the given dimension. *)
