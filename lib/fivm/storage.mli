(** Mutable base-relation storage for IVM: per relation, a Z-multiset of
    tuples held once as typed rows, plus an index on every join key shared
    with a join-tree neighbour. Strategies compute their view deltas
    against the pre-update state, then the driver applies the update once.

    An update is unboxed once, at the edge: {!stage} writes its tuple into
    the relation's staging row, which strategies read like any other row,
    and {!apply_staged} then applies it. Rows are read through their cells
    ({!cells}) and found through join keys ({!first}, {!next}); inserts and
    deletes cost O(number of neighbours) whatever the bucket sizes. *)

open Relational

type node
(** One relation's rows and indexes. *)

type t

val create : Database.t -> t
(** Empty storage shaped by the database's schemas and join tree. *)

val node : t -> string -> node
(** @raise Invalid_argument on an unknown relation. *)

val name : node -> string
val schema : node -> Schema.t

val neighbours : node -> string list
(** The node's join-tree neighbours, in a fixed order. *)

(** {2 Rows} *)

val cells : node -> Column.t array
(** The node's typed columns, aligned with its schema: cell [r] of column
    [j] is attribute [j] of row [r], for a live row or the staged row. A
    column's representation may change at the next {!stage}, so match
    {!Column.data} per read. Read-only. *)

val stage : node -> Tuple.t -> int
(** Write the tuple into the node's staging row and return that row. It
    reads like a live row (cells, keys) but is in no index, and it holds
    until the next [stage] on the node. Row ids hold between updates only:
    staging and applying may compact the node, which renumbers its rows.
    @raise Invalid_argument on an arity mismatch. *)

val multiplicity : node -> Tuple.t -> int
(** Multiplicity of the tuple (0 when absent). Stages it. *)

(** {2 Join-key indexes} *)

type edge
(** A node's index towards one neighbour, resolved once. *)

val edge : node -> neighbour:string -> edge
(** @raise Invalid_argument if [neighbour] is not a neighbour of the node. *)

(** {2 Keys and buckets without allocation}

    Keys in their {!Keypack} int form, with the tuple alongside for a key
    that does not pack. *)

val edge_packed : edge -> int -> int
(** A row's join key towards the edge's neighbour, packed, or
    [Keypack.nopack]. *)

val edge_tuple : edge -> int -> Tuple.t
(** The same key as a fresh tuple. *)

val first : edge -> int -> Tuple.t -> int
(** [first e p key]: the newest live row joining the packed key [p], or,
    when [p] is [Keypack.nopack], joining [key]; -1 when there is none.
    [key] is read only in that case. *)

val next : edge -> int -> int
(** The next older live row of a row's bucket, or -1: {!first} and [next]
    walk a bucket newest first (the order float accumulation downstream
    depends on). The storage must not be updated during a walk. *)

val row_multiplicity : node -> int -> int
(** A live row's multiplicity. *)

(** {2 Updates} *)

val apply_staged : t -> node -> int -> unit
(** Add the multiplicity to the staged tuple's. A tuple that becomes live
    takes a new row after the node's others; one that reaches 0 leaves its
    row dead. Dead rows are compacted away, keeping the order, once they
    outnumber live ones or when a full node has a sixteenth of its rows
    dead ([fivm.storage_compactions]). A live tuple keeps the cells it was
    first inserted with; tuples are equal cell by cell as {!Value.equal}
    says, so [+0.0] and [-0.0] are one tuple. *)

val apply : t -> Delta.update -> unit
(** {!stage} then {!apply_staged}. *)

val total_tuples : t -> int
(** Sum of |multiplicity| over the live tuples, in O(1). *)

val join_tree : t -> Join_tree.t

(** {2 Reading the contents} *)

val iter_live : node -> (int -> int -> unit) -> unit
(** [iter_live n f] calls [f r m] for each live row [r] and its
    multiplicity [m], in row order: first-insertion order, which
    compaction keeps. {!columns} copies rows in this order. The storage
    must not be updated during the walk. *)

val columns : node -> Column.t array * int
(** The live rows as fresh exact-size columns, and their length: [m]
    copies of a row of multiplicity [m] (none for [m <= 0]), in row order.
    A column is typed when every copied cell fits its declared type, and
    boxed otherwise. *)

val dump : t -> Delta.update list
(** Live contents as bulk inserts in insertion order (oldest first):
    applying them to a fresh storage reproduces every index bucket in the
    original order, which keeps downstream float accumulation bit-identical
    (the checkpoint/restore contract). *)
