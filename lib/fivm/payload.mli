(** Payloads for incremental view maintenance. A view tree's payload is a
    ring whose elements live in mutable buffers: the tree owns every
    buffer it reads or writes and accumulates into them in place, so a
    steady-state update allocates no ring elements. *)

(** The in-place ring protocol {!View_tree.Make} runs on. The ring's one
    is never materialised: the tree treats an empty product symbolically,
    reading its first factor in place of multiplying by one.

    Every buffer has a shape, what its element covers: a view-tree node's
    buffers have the shape of its subtree, the union of its relation's
    lift shape and its children's. The tree only multiplies operands of
    disjoint shapes, through a product plan made once per site. *)
module type S = sig
  type t
  (** A mutable buffer holding one ring element. *)

  type shape

  val union : shape -> shape -> shape
  (** The shape of a product of disjoint operands. *)

  val zero : shape -> t
  (** A fresh zero buffer of the shape. *)

  type product

  val product : shape -> shape -> product
  (** The plan for multiplying an operand of the first shape by one of the
      second, into a buffer of their {!union}.
      @raise Invalid_argument when the shapes overlap. *)

  val mul_into : product -> t -> t -> into:t -> unit
  (** [mul_into plan a b ~into] sets [into] to the product [a * b], in
      that operand order. [into] must alias neither operand. *)

  val add_into : t -> into:t -> unit
  (** [add_into x ~into] sets [into] to [into + x] (same shape). *)

  val scale : int -> t -> unit
  (** [scale m x] sets [x] to its m-fold sum, [m * x] (any sign). *)

  val is_zero : t -> bool
  (** EXACT additive-identity test (no tolerance): view trees drop entries
      whose payload cancelled to zero, so churn that nets a group to zero
      multiplicity leaves no 0-weight residue behind. *)

  val copy : t -> into:t -> unit
  (** [copy x ~into] overwrites [into] with [x] (same shape). *)
end

(** Scalar payload (the higher-order strategy's per-aggregate trees). *)
module Float : sig
  include S with type shape = unit

  val make : float -> t
  val get : t -> float
  val set : t -> float -> unit
end

(** F-IVM's payload: {!Rings.Covariance} triples over a set of features,
    named by their indices in the task's feature list, ascending. A triple
    of shape [s] has dimension [Array.length s]; its feature [i] is feature
    [s.(i)] of the task. Products run {!Rings.Covariance.mul_disjoint}. *)
module Cov : S with type t = Rings.Covariance.t and type shape = int array
