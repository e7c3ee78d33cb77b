(** Packed join/group-by keys: multi-attribute all-int keys packed into one
    immediate int (injective, lexicographically monotone), with a boxed-tuple
    fallback for keys that do not fit. Routing depends only on the key
    values, so column-reading extractors and tuple-reading packers agree. *)

type key = P of int | B of Tuple.t

val key_equal : key -> key -> bool
val key_hash : key -> int

val key_compare : key -> key -> int
(** Total order (packed before boxed) — deterministic serialisation order
    for checkpoint writers iterating hash tables. *)

val shard_of_key : shards:int -> key -> int
(** [shard_of_key ~shards k] maps [k] to a shard in [\[0, shards)]. Depends
    only on the key value: packed keys and their boxed round trips route
    identically. [shards <= 1] always routes to shard 0. *)

val field_width : int -> int
(** Bits per field at the given key arity (62 for arity <= 1, [62/k] else). *)

val key_of_tuple : int array -> Tuple.t -> key
(** Project the positions out of a boxed tuple and pack if possible. *)

val extractor : Column.t array -> int -> key
(** [extractor cols] compiles a key reader over the given key columns (in
    key order): [extractor cols i] is the key of row [i], packed without
    boxing when every field is a fitting int. Captures the column
    representations at compile time — build after the relation is loaded. *)

val unpack : int -> int -> Tuple.t
(** [unpack k p] recovers the [k] fields of a packed key as [Value.Int]s. *)

val key_tuple : int -> key -> Tuple.t
(** Boxed view of a key at the given arity ({!unpack} or the fallback). *)

module Itbl : Hashtbl.S with type key = int

(** Hash table keyed by {!key}: packed keys hash as ints, fallback keys as
    boxed tuples. *)
module Hybrid : sig
  type 'a t

  val create : int -> 'a t
  val find_opt : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool
  val add : 'a t -> key -> 'a -> unit
  val length : 'a t -> int
  val iter : (key -> 'a -> unit) -> 'a t -> unit
  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
end
