(** In-memory bag relations with append-only mutation.

    Physically columnar: one typed {!Column.t} per attribute. Boxed
    {!Tuple.t}s are the interchange format at the edges; hot paths read
    columns via {!scan} / {!Row} and pack keys via {!extractor}. *)

type t

val create : ?capacity:int -> string -> Schema.t -> t
val name : t -> string
val schema : t -> Schema.t
val cardinality : t -> int

val append : t -> Tuple.t -> unit
(** Raises [Invalid_argument] on arity mismatch. *)

val of_list : string -> Schema.t -> Tuple.t list -> t

(** {1 Columnar access (hot paths)} *)

val columns : t -> Column.t array
(** The physical columns, positionally aligned with the schema. Read-only
    by convention. *)

val column : t -> int -> Column.t

val scan : t -> Column.data array
(** Snapshot of every column's backing data for a tight scan loop; bumps the
    [relational.column_scans] counter. Cells at indexes [>= cardinality]
    are unspecified. *)

val extractor : t -> int array -> int -> Keypack.key
(** [extractor t positions] compiles a packed-key reader for the given key
    positions (see {!Keypack.extractor}); build after loading. *)

val float_at : t -> int -> int -> float
(** [float_at t i pos]: row [i], column position [pos], as a float
    ({!Value.to_float} semantics). Unchecked. *)

val int_at : t -> int -> int -> int

(** Cursor over one row: attribute reads without materialising a tuple. *)
module Row : sig
  type rel := t
  type t = { rel : rel; mutable i : int }

  val value : t -> int -> Value.t
  val float : t -> int -> float
  val int : t -> int -> int
end

val row : t -> int -> Row.t

(** {1 Append fast paths (column-to-column, no intermediate tuple)} *)

val append_from : t -> t -> int -> unit
(** [append_from t src i] appends row [i] of [src]; schemas must be
    compatible positionally. *)

val append_project : t -> t -> int array -> int -> unit
(** Append the projection of [src]'s row [i] onto the given positions. *)

val append_concat : t -> t -> int -> t -> int array -> int -> unit
(** [append_concat t a i b b_positions j] appends [a]'s row [i] followed by
    the [b_positions] cells of [b]'s row [j] (the join output row). *)

val of_projection : string -> t -> int array -> Schema.t -> t
(** Bag projection by whole-column copy: column [j] of the result is a copy
    of the source column at [positions.(j)]. *)

val of_columns : string -> Schema.t -> Column.t array -> int -> t
(** [of_columns name schema cols size] wraps freshly built columns (aligned
    with [schema], each holding at least [size] cells); ownership
    transfers to the relation. *)

val install : t -> Column.t array -> int -> unit
(** [install t cols size] replaces [t]'s rows with freshly built columns,
    under the terms of {!of_columns}; [t] keeps its name and schema.
    @raise Invalid_argument when [cols] does not match the arity. *)

val cluster : t -> int array -> bool
(** [cluster t positions] reorders [t]'s rows in place, stably sorted on
    the columns at [positions] (lexicographically, in that order), and
    says whether any row moved. It moves nothing when the rows are already
    in that order, when [t] has fewer than two rows, or when a key column
    is not [Ints]. One counting sort over the composite key (a stable
    merge sort of row ids when the key ranges multiply past
    [max 1024 (4 * cardinality)]), then one scatter per column. *)

(** {1 Boxed access (edges and compatibility)}

    These materialise boxed tuples (counted by [relational.boxed_tuples]). *)

val get : t -> int -> Tuple.t
val iter : (Tuple.t -> unit) -> t -> unit
val iteri : (int -> Tuple.t -> unit) -> t -> unit
val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a
val to_list : t -> Tuple.t list
val copy : t -> t

val value_at : t -> int -> string -> Value.t
(** [value_at r i attr] is tuple [i]'s value of attribute [attr]. Raises
    [Invalid_argument] when [i] is out of bounds. *)

val value_count : t -> int
(** Cardinality times arity — the paper's representation-size measure. *)

val csv_size : t -> int
(** Byte size of the CSV serialisation (without materialising it). *)

val csv_rows : t -> string list list

val of_csv_rows : ?first_line:int -> string -> Schema.t -> string list list -> t
(** Typed CSV load. Raises [Util.Csvio.Malformed] with the 1-based source
    position on wrong arity or an unparseable cell; [first_line] (default 1)
    anchors the first row's line number (pass 2 for data under a header). *)

val of_csv_rows_located : string -> Schema.t -> (int * string list) list -> t
(** As {!of_csv_rows}, over [Util.Csvio.parse_string_located] or
    [read_file_located] output — reported lines survive skipped blanks. *)

val distinct_count : t -> int
val pp : Format.formatter -> t -> unit
