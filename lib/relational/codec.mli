(** Binary codec for the durable formats (resilience layer, paged store):
    fixed-width little-endian primitives, value/tuple/key encodings, and
    checksummed frames. Writers append to a [Buffer.t]; readers raise
    {!Decode_error} on malformed or truncated input, LOCATED at the byte
    offset in the reader's string where the failing read began (floats
    round-trip bit-identically). *)

type error = {
  offset : int;  (** byte offset of the failing read; [-1] when semantic *)
  reason : string;
}

exception Decode_error of error

val error_message : error -> string
(** ["<reason> at byte <offset>"], or just the reason for semantic errors. *)

val fail : ?offset:int -> string -> 'a
(** Raise {!Decode_error} ([offset] defaults to [-1]: unlocated). *)

type reader = { buf : string; mutable pos : int; lim : int }
(** A cursor over [buf]'s bytes [pos, lim). *)

val reader : ?pos:int -> ?len:int -> string -> reader
(** Read [len] bytes of the string from [pos] (defaults: from 0, to the
    end). @raise Invalid_argument when the range is outside the string. *)

val eof : reader -> bool
val remaining : reader -> int

val fail_at : reader -> string -> 'a
(** Raise {!Decode_error} located at the reader's current position. *)

val u8 : Buffer.t -> int -> unit
val read_u8 : reader -> int

val u32 : Buffer.t -> int -> unit
(** 32-bit unsigned little-endian (lengths, checksums). *)

val read_u32 : reader -> int

val i64 : Buffer.t -> int -> unit
(** OCaml int as 8-byte little-endian. *)

val read_i64 : reader -> int

val f64 : Buffer.t -> float -> unit
(** Exact bit pattern: [read_f64] returns a bit-identical float. *)

val read_f64 : reader -> float

val read_i64s : reader -> int -> int array
(** [n] consecutive {!i64} cells into a fresh array; a truncation is
    located at the first missing cell. *)

val read_f64s : reader -> int -> float array
(** [n] consecutive {!f64} cells into a fresh float array (no boxing). *)

val read_i64s_into : reader -> int array -> unit
(** {!read_i64s} of the array's length, written into the array. *)

val read_f64s_into : reader -> float array -> unit
(** {!read_f64s} of the array's length, written into the array. *)

val str : Buffer.t -> string -> unit
val read_str : reader -> string

val value : Buffer.t -> Value.t -> unit
val read_value : reader -> Value.t

(** {2 In-place writers}

    Each [put_*] writes the bytes of the [Buffer] writer of the same name
    at a position of a [Bytes.t] and returns the position after them; each
    [*_size] is their count. A frame's payload is written once, at its
    exact size, and sealed in place ({!seal_frame}). *)

val put_u8 : Bytes.t -> int -> int -> int
val put_u32 : Bytes.t -> int -> int -> int
val put_i64 : Bytes.t -> int -> int -> int
val put_f64 : Bytes.t -> int -> float -> int
val str_size : string -> int
val put_str : Bytes.t -> int -> string -> int
val value_size : Value.t -> int
val put_value : Bytes.t -> int -> Value.t -> int
val tuple_size : Tuple.t -> int
val put_tuple : Bytes.t -> int -> Tuple.t -> int
val key_size : Keypack.key -> int
val put_key : Bytes.t -> int -> Keypack.key -> int

val tuple : Buffer.t -> Tuple.t -> unit
val read_tuple : reader -> Tuple.t

val key : Buffer.t -> Keypack.key -> unit
val read_key : reader -> Keypack.key

val frame : Buffer.t -> string -> unit
(** [[len][crc32][payload]]: a frame decodes only when completely present
    with a matching checksum — torn tails and bit flips read as "no frame",
    located at the frame's first byte. *)

val frame_header : int
(** Bytes before a frame's payload: [len] and [crc32], 4 each. *)

val seal_frame : Bytes.t -> pos:int -> len:int -> unit
(** Frame in place: the [len]-byte payload already written at
    [pos + frame_header] gets its header at [pos], the same bytes {!frame}
    writes. *)

val read_frame : reader -> reader
(** Check a frame where it lies and return a reader bounded to its
    payload (no copy); the outer reader moves past the frame. Errors read
    through the payload reader are located at their offsets in the outer
    reader's string. *)
