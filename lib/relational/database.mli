(** A named collection of relations joined by the feature-extraction query
    (their natural join). *)

type t

type chunks = { seq : Relation.t Seq.t; release : Relation.t -> unit }
(** An out-of-core relation as a pull sequence of chunks in global row
    order, read again from the start each time it is traversed. Each chunk
    is an ordinary in-memory {!Relation.t} slice sharing the full
    relation's schema; a reader may pull two relations' chunks in
    lockstep, and may hold many chunks at once.

    A chunk is leased to its reader: [release c] hands [c] back, once, and
    its cells may then be overwritten by a later chunk, so a released chunk
    must not be read again. A chunk that is never released is never
    reused. *)

val create : string -> Relation.t list -> t
(** Raises on duplicate relation names.

    [create] reorders the given relations' rows in place: on an acyclic
    schema, each relation with at least two rows is stably sorted
    ({!Relation.cluster}) on its join key with its largest neighbour in
    the join tree (ties go to the first by name), the key's attributes in
    the relation's own order. Rows already in that order stay put, as do
    relations whose key columns are not [Ints], every relation of a
    cyclic schema or of a one-relation database, and rows appended after
    [create]. Each relation it reorders adds its cardinality to
    [relational.clustered_rows]. *)

val create_streamed : string -> (Relation.t * chunks option) list -> t
(** Like {!create}, but relations paired with [Some chunks] are out-of-core:
    the given relation is a stub carrying the true name, schema and
    cardinality while its cells live on disk. Engines must scan such
    relations through {!stream} and never read the stub's columns. *)

val stream : t -> string -> chunks option
(** The chunk sequence of an out-of-core relation, if this one is. *)

val streamed_names : t -> string list

val name : t -> string
val relations : t -> Relation.t list
val relation : t -> string -> Relation.t
val total_cardinality : t -> int
val total_value_count : t -> int
val total_csv_size : t -> int

val join_tree : t -> Join_tree.t
(** @raise Join_tree.Cyclic when the schema is cyclic. *)

val materialise_join : t -> Relation.t
(** The materialised feature-extraction query (structure-agnostic path). *)

val attribute_names : t -> string list
val pp : Format.formatter -> t -> unit
