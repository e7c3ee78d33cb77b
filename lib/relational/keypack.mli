(** Packed join/group-by keys: multi-attribute all-int keys packed into one
    immediate int (injective, lexicographically monotone), with a boxed-tuple
    fallback for keys that do not fit. Routing depends only on the key
    values, so column-reading readers and tuple-reading packers agree.

    This module is the one place that knows the key format: arity 0 packs
    as 0, arity 1 is the int itself, and arity [k >= 2] folds [k] fields in
    [0, 2^(62/k)) big-endian. A key has two forms: a {!key} ([P]/[B]), and
    an int, with {!nopack} for a key that does not pack (read as a tuple
    alongside). They differ on an arity-1 [Int min_int] only: [P min_int],
    but {!nopack} as an int. *)

type key = P of int | B of Tuple.t

val nopack : int
(** [min_int]: the int form of a key that does not pack. An arity-1 key
    [Int min_int] also reads as [nopack] on every int path here (the
    readers, {!pack}, {!pack_tuple}, {!of_key}), so it takes the boxed side
    of an {!Index}. *)

val hash : int -> int
(** The key hash of a packed key: a multiply with the high bits folded
    down, so the low bits that pick a bucket or slot depend on every
    field. *)

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
    boxing when every field is a fitting int. Build after the relation is
    loaded. *)

val unpack : int -> int -> Tuple.t
(** [unpack k p] recovers the [k] fields of a packed key as [Value.Int]s. *)

val key_tuple : int -> key -> Tuple.t
(** Boxed view of a key at the given arity ({!unpack} or the fallback). *)

(** {1 Keys as ints} *)

val reader : Column.t array -> int array -> int -> int
(** [reader cols positions i]: row [i]'s key over the columns at
    [positions], packed, or {!nopack}. Specialised to the representation
    an arity-1 key's column has when it is built: build after loading.
    Allocates nothing. *)

val pack : Column.t array -> int array -> int -> int
(** [pack cols positions i]: the same key, reading each column's
    representation at the call, for columns that grow and promote.
    Allocates nothing. *)

val tuple : Column.t array -> int array -> int -> Tuple.t
(** Row [i]'s key over the columns at [positions], boxed. *)

val pack_tuple : Tuple.t -> int
(** The int form of a whole boxed key. *)

val to_key : int -> Tuple.t -> key
(** [to_key p t]: the key whose int form is [p], and, when [p] is
    {!nopack}, whose tuple is [t] ([t] is read only then); as
    {!key_of_tuple} reads it. *)

val of_key : key -> int * Tuple.t
(** A key's int form, with its tuple when that is {!nopack} ([[||]]
    otherwise). *)

(** {1 Tables} *)

module Itbl : Hashtbl.S with type key = int

(** Hash table keyed by {!key}: packed keys hash as ints, fallback keys as
    boxed tuples. Counts [keypack.packed]/[keypack.boxed] per add. *)
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

(** A map from keys in their int form to non-negative ints: an int array of
    [key; value] pairs probed linearly from {!hash}, at most half full,
    with removal by backward shift (no tombstones); keys that do not pack
    in a [Tuple.Tbl] beside it. A call with a packed key (not {!nopack})
    allocates nothing unless the table grows. A key new to the table counts
    [keypack.packed] or [keypack.boxed]. Nothing here iterates the packed
    side, so no result depends on its order. *)
module Index : sig
  type t

  val create : unit -> t
  (** An empty index of 16 slots. *)

  val of_keys : int array -> int -> t
  (** [of_keys keys n] maps [keys.(i)] to [i] for each [i < n] whose key is
      not {!nopack}; the keys must be distinct. Counts nothing: the keys
      were counted when recorded. *)

  val find : t -> int -> int
  (** The value of a packed key, or -1. *)

  val add : t -> int -> int -> int
  (** [add t p v]: the value of the packed key [p], or, when [p] is new,
      -1 after mapping it to [v >= 0]. One probe either way. *)

  val replace : t -> int -> int -> int
  (** [replace t p v] maps the packed key [p] to [v >= 0] and returns its
      previous value, or -1 when it is new. *)

  val remove : t -> int -> unit

  val find_boxed : t -> Tuple.t -> int
  val replace_boxed : t -> Tuple.t -> int -> int
  val remove_boxed : t -> Tuple.t -> unit

  val iter_boxed : (Tuple.t -> int -> unit) -> t -> unit
  (** The boxed keys in [Tuple.Tbl] order. *)

  val length : t -> int

  val clear : t -> unit
  (** Remove every key, in O(keys inserted since the last clear) when they
      are at most an eighth of the slots, and O(slots) otherwise. *)
end

val c_packed : Obs.counter
(** [keypack.packed]: packed keys inserted into tables (the {!Hybrid} and
    {!Index} tables count their own; a table that records keys without
    either counts here). *)
