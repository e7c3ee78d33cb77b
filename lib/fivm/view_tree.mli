(** Factorised view trees with ring payloads (F-IVM, Sections 3.1/5.2): one
    view per join-tree node mapping its parent-join key to the ring
    aggregate of its subtree; single-tuple updates propagate bottom-up as
    deltas joined with sibling views. With [Payload.Float] and per-aggregate
    lifts this is higher-order delta processing; with [Rings.Covariance] it
    is F-IVM proper. Payloads live in buffers the tree owns and accumulates
    into ({!Payload.S}). *)

open Relational

module Make (P : Payload.S) : sig
  type t

  val create :
    Storage.t -> zero:(unit -> P.t) -> lift:(Storage.node -> int -> into:P.t -> unit) -> t
  (** [zero ()] is a fresh zero buffer; the tree makes every buffer it owns
      with it. [lift node r ~into] writes the ring image of row [r] of the
      node's relation (the product of the lifts of the attributes it owns);
      it is applied to [node] once per node, here. Views start empty
      (matching the empty storage). *)

  val delta : t -> Storage.node -> int -> int -> unit
  (** [delta t node r m] processes an update of multiplicity [m] to the
      tuple staged as row [r] of [node] ({!Storage.stage}), against the
      CURRENT storage; call {!Storage.apply_staged} once afterwards (after
      all trees saw the delta). *)

  val result : t -> P.t
  (** The maintained query result: the root view at the empty key (a zero
      buffer when absent). The buffer is the tree's own: read it, or copy
      it out, before the next {!delta}. *)

  val recompute : t -> P.t
  (** From-scratch recomputation over the current storage (test oracle),
      in a fresh buffer. *)

  val view_sizes : t -> (string * int) list
  (** Per-node view cardinalities (diagnostics). *)

  val export : t -> (P.t -> 'a) -> (string * (Keypack.key * 'a) list) list
  (** Per-node view contents (keys sorted), each exact accumulated payload
      read through the given function — the checkpoint representation of
      maintained state. *)

  val import : t -> (string * (Keypack.key * P.t) list) list -> unit
  (** Replace all view contents with a dump whose buffers the tree takes
      over (bit-identical restore); nodes absent from the dump become
      empty. *)
end
