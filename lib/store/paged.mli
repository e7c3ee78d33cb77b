(** Paged on-disk relations: `<name>.pages` (CRC-framed pages) plus
    `<name>.meta` (schema + page directory, one checksummed frame, written
    tmp+rename). Readers decode pages on demand through a bounded LRU
    {!Cache}, so scans stay out-of-core.

    A page a {!stream} chunk was leased from is recycled once the chunk is
    released and the cache has dropped the page: the next full page
    decoded reuses its Ints and Floats arrays ([store.pages_recycled]). A
    handle keeps at most [cache_pages] such spare pages. Pages handed out
    by {!chunk} (and so {!iter_chunks} and {!to_relation}), and short last
    pages, are never recycled. *)

val default_page_rows : int
val default_cache_pages : int

val pages_path : string -> string -> string
val meta_path : string -> string -> string

(** {1 Writing} *)

type writer

val writer :
  dir:string -> ?page_rows:int -> string -> Relational.Schema.t -> writer

val append_row : writer -> Relational.Relation.t -> int -> unit
val append_chunk : writer -> Relational.Relation.t -> unit

val append_encoded : writer -> string -> rows:int -> unit
(** Append an already-encoded page (parallel loaders); pages must arrive in
    index order. *)

val close_writer : writer -> int
(** Flush the trailing partial page, rename the pages file into place and
    write the meta directory. Returns total rows written. *)

(** {1 Reading} *)

type t

val openr : ?cache_pages:int -> dir:string -> string -> t
(** Open for reading with the given page-cache budget. Raises
    [Relational.Codec.Decode_error] (located) on a corrupt meta. *)

val name : t -> string
val schema : t -> Relational.Schema.t
val rows : t -> int
val page_rows : t -> int
val pages : t -> int
val close : t -> unit

val chunk : t -> int -> Relational.Relation.t
(** Page [i] as an in-memory relation chunk (via the cache). The chunk is
    the caller's to keep: its page is never recycled. *)

val iter_chunks : t -> (Relational.Relation.t -> unit) -> unit
(** Sequential scan, one page chunk at a time, in global row order, each
    chunk from {!chunk}. *)

val stream : t -> Relational.Database.chunks
(** The pages as a chunk sequence, each page read (through the cache) when
    the sequence reaches it. Each chunk is leased: its cells stay intact
    until it is released, however many pages are read meanwhile, and may
    be overwritten by a later page after that. Releasing a chunk that is
    not leased from this handle (or a second time) raises
    [Invalid_argument]. *)

val stub : t -> Relational.Relation.t
(** Planner stub: true name/schema/cardinality, no resident cells. *)

val verify : t -> int * int
(** Decode every page against the directory; [(pages, rows)] on success,
    located [Decode_error] on damage. *)

val to_relation : t -> Relational.Relation.t
(** Materialise fully in memory (tests, small relations). *)
