(** Page codec of the paged columnar store: CRC-framed, column-major,
    bit-exact. See the .ml header for the wire grammar. *)

type t = { index : int; rows : int; columns : Relational.Column.t array }

val magic : string

val encode : index:int -> Relational.Relation.t -> lo:int -> rows:int -> string
(** Encode rows [lo, lo+rows) of the relation as one page. *)

val decode : ?at:int -> ?len:int -> ?into:t -> string -> t
(** Decode the page in the first [len] bytes of the string (default: all
    of it); the page shares nothing with the string. Raises
    [Relational.Codec.Decode_error] on torn or corrupt input, located at
    the absolute file offset [at + offset in the page].

    [into] is a page no one reads any more: each Ints or Floats column is
    decoded into the array of [into]'s column at the same position when
    that array has the same representation and exactly the page's row
    count ([store.pages_recycled] counts a page that reuses any), and
    into a fresh array otherwise. Boxed columns are always fresh. *)

val to_relation : string -> Relational.Schema.t -> t -> Relational.Relation.t
(** Wrap a decoded page as an in-memory relation chunk. *)
