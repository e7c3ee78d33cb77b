(** Payloads for incremental view maintenance. A view tree's payload is a
    ring whose elements live in mutable buffers: the tree owns every
    buffer it reads or writes and accumulates into them in place, so a
    steady-state update allocates no ring elements. *)

(** The in-place ring protocol {!View_tree.Make} runs on. The ring's one
    is never materialised: the tree treats an empty product symbolically,
    reading its first factor in place of multiplying by one.
    {!Rings.Covariance} (F-IVM's payload) satisfies it as it stands. *)
module type S = sig
  type t
  (** A mutable buffer holding one ring element. *)

  val mul_into : t -> t -> into:t -> unit
  (** [mul_into a b ~into] sets [into] to the product [a * b], in that
      operand order. [into] must alias neither operand. *)

  val add_into : t -> into:t -> unit
  (** [add_into x ~into] sets [into] to [into + x]. *)

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
