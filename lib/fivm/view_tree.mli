(** Factorised view trees with ring payloads (F-IVM, Sections 3.1/5.2): one
    view per join-tree node mapping its parent-join key to the ring
    aggregate of its subtree; single-tuple updates propagate bottom-up as
    deltas joined with sibling views. With [Payload.Float] and per-aggregate
    lifts this is higher-order delta processing; with [Payload.Cov] it is
    F-IVM proper. Payloads live in buffers the tree owns and accumulates
    into ({!Payload.S}), each of its node's shape: for the covariance ring,
    the features owned in the node's subtree. *)

open Relational

module Make (P : Payload.S) : sig
  type t

  val create : Storage.t -> lift:(Storage.node -> P.shape * (int -> into:P.t -> unit)) -> t
  (** [lift node] is the shape of the node's lifts and a function writing
      the ring image of row [r] of the node's relation into a buffer of
      that shape (the product of the lifts of the attributes it owns); it
      is applied to [node] once per node, here. A node's views, deltas and
      scratch have the union of its lift shape and its children's shapes.
      Views start empty (matching the empty storage). *)

  val delta : t -> Storage.node -> int -> int -> unit
  (** [delta t node r m] processes an update of multiplicity [m] to the
      tuple staged as row [r] of [node] ({!Storage.stage}), against the
      CURRENT storage; call {!Storage.apply_staged} once afterwards (after
      all trees saw the delta). Once the keys it meets have entries and
      its tables have grown, an update allocates nothing. *)

  val result : t -> P.t
  (** The maintained query result: the root view at the empty key (a zero
      buffer when absent), of the root's shape. The buffer is the tree's
      own: read it, or copy it out, before the next {!delta}. *)

  val recompute : t -> P.t
  (** From-scratch recomputation over the current storage (test oracle),
      in a fresh buffer of the root's shape. *)

  val view_sizes : t -> (string * int) list
  (** Per-node view cardinalities (diagnostics). *)

  val shape_of : t -> string -> P.shape option
  (** The shape of a node's views, by relation name. *)

  val export : t -> (P.shape -> P.t -> 'a) -> (string * (Keypack.key * 'a) list) list
  (** Per-node view contents (keys sorted), each exact accumulated payload
      read through the given function with its node's shape — the
      checkpoint representation of maintained state. *)

  val import : t -> (string * (Keypack.key * P.t) list) list -> unit
  (** Replace all view contents with copies of a dump's payloads, each of
      its node's shape (bit-identical restore); nodes absent from the dump
      become empty. *)
end
