(** Mutable base-relation storage for IVM: Z-multisets of tuples plus hash
    indexes on every join key shared with a join-tree neighbour. Strategies
    compute their view deltas against the pre-update state, then the driver
    calls {!apply} once. Multiset and indexes hash {!Keypack} keys, so
    in-range int join keys probe as immediate ints. Inserts and deletes cost
    O(number of neighbours) whatever the bucket sizes. *)

open Relational

type node
(** One relation's multiset and indexes. *)

type t

val create : Database.t -> t
(** Empty storage shaped by the database's schemas and join tree. *)

val node : t -> string -> node
(** @raise Invalid_argument on an unknown relation. *)

val schema : node -> Schema.t

val neighbours : node -> string list
(** The node's join-tree neighbours, in a fixed order. *)

val multiplicity : node -> Tuple.t -> int

val fold_matching :
  node -> neighbour:string -> Keypack.key -> (Tuple.t -> int -> 'a -> 'a) -> 'a -> 'a
(** [fold_matching n ~neighbour key f init] folds [f tuple multiplicity] over
    the live tuples of [n] joining with the given neighbour-edge key, newest
    first (the order float accumulation downstream depends on). [f] must not
    update the storage. *)

val key_for : node -> neighbour:string -> Tuple.t -> Keypack.key
(** A tuple's join key towards the given neighbour (sorted attribute
    order — both edge endpoints agree on it). *)

type edge
(** A node's index towards one neighbour, resolved once, so repeated probes
    skip the neighbour lookup. *)

val edge : node -> neighbour:string -> edge
(** @raise Invalid_argument if [neighbour] is not a neighbour of the node. *)

val fold_edge : edge -> Keypack.key -> (Tuple.t -> int -> 'a -> 'a) -> 'a -> 'a
(** {!fold_matching} through a resolved edge. *)

val edge_key : edge -> Tuple.t -> Keypack.key
(** {!key_for} through a resolved edge. *)

val apply : t -> Delta.update -> unit
(** Apply the update to the multiset and all indexes; entries reaching
    multiplicity 0 are removed. A tuple keeps the representation it was
    first inserted with while it stays live. *)

val total_tuples : t -> int
(** Sum of |multiplicity| over the live tuples, in O(1). *)

val join_tree : t -> Join_tree.t

val iter_tuples : node -> (Tuple.t -> int -> unit) -> unit
(** Live tuples with their multiplicities, in hash-table order. *)

val dump : t -> Delta.update list
(** Live contents as bulk inserts in insertion order (oldest first):
    applying them to a fresh storage reproduces every index bucket in the
    original order, which keeps downstream float accumulation bit-identical
    (the checkpoint/restore contract). *)
