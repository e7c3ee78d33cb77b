(* Binary codec for the durable formats of the resilience layer and the
   paged columnar store: fixed-width little-endian primitives plus
   value/tuple/key encodings.

   Writers append to a [Buffer.t] (the paged store writes a page of known
   size into [Bytes.t] in place, with [put_value] and [seal_frame]);
   readers consume a [reader] cursor over a byte range [pos, lim) of a
   string and raise [Decode_error] on any malformed or truncated input —
   callers (WAL replay, checkpoint restore, page decode) turn that into
   "stop at the last valid prefix" or a located diagnostic rather than
   crashing. Errors carry the BYTE OFFSET at which the failing read began
   (mirroring [Util.Csvio.Malformed]'s source position for text input), so
   a corrupt page or checkpoint can be pointed at, not just detected.
   Offsets are positions in the reader's string: a frame's payload is read
   in place, through a reader bounded to it, so an error inside it is
   located where its bytes are. The encoding is self-contained per record:
   no global symbol table, so a record can be decoded out of any valid
   byte range. *)

type error = { offset : int; reason : string }
(* [offset] is the position in the decoded string where the failing read
   started; [-1] when the error is semantic rather than positional (e.g. a
   registry lookup that found no decoder). *)

exception Decode_error of error

let error_message { offset; reason } =
  if offset < 0 then reason
  else Printf.sprintf "%s at byte %d" reason offset

let () =
  Printexc.register_printer (function
    | Decode_error e -> Some ("Relational.Codec.Decode_error: " ^ error_message e)
    | _ -> None)

let fail ?(offset = -1) reason = raise (Decode_error { offset; reason })

type reader = { buf : string; mutable pos : int; lim : int }

let reader ?(pos = 0) ?len buf =
  let len = match len with Some n -> n | None -> String.length buf - pos in
  if pos < 0 || len < 0 || pos + len > String.length buf then
    invalid_arg "Codec.reader";
  { buf; pos; lim = pos + len }

let eof r = r.pos >= r.lim

let remaining r = r.lim - r.pos

let fail_at r reason = fail ~offset:r.pos reason

let need r n =
  if remaining r < n then
    fail_at r (Printf.sprintf "truncated input: need %d bytes" n)

(* ---- primitives ---- *)

let u8 b n = Buffer.add_char b (Char.chr (n land 0xFF))

let read_u8 r =
  need r 1;
  let c = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  c

(* 32-bit unsigned little-endian (lengths, checksums) *)
let u32 b n = Buffer.add_int32_le b (Int32.of_int n)

let read_u32 r =
  need r 4;
  let v = Int32.to_int (String.get_int32_le r.buf r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

(* OCaml int as 8-byte little-endian (sign-preserving through Int64) *)
let i64 b n = Buffer.add_int64_le b (Int64.of_int n)

let read_i64 r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

(* floats by their exact bit pattern: decode(encode x) is bit-identical *)
let f64 b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let read_f64 r =
  need r 8;
  let v = Int64.float_of_bits (String.get_int64_le r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

(* [n] fixed-width cells: all present, or an error located at the first
   missing cell *)
let need_cells r n =
  let present = remaining r / 8 in
  if present < n then
    fail ~offset:(r.pos + (8 * present)) "truncated input: need 8 bytes"

external get64u : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get64_le s i = if Sys.big_endian then bswap64 (get64u s i) else get64u s i

(* Typed loops over as many consecutive cells as the array holds, written
   into it: no closure and no boxed float per cell, and nothing shared with
   the reader's string. [need_cells] has checked the whole range, so the
   cells are read unchecked. *)
let read_i64s_into r a =
  let n = Array.length a in
  need_cells r n;
  let buf = r.buf and base = r.pos in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (Int64.to_int (get64_le buf (base + (8 * i))))
  done;
  r.pos <- base + (8 * n)

let read_f64s_into r (a : float array) =
  let n = Array.length a in
  need_cells r n;
  let buf = r.buf and base = r.pos in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (Int64.float_of_bits (get64_le buf (base + (8 * i))))
  done;
  r.pos <- base + (8 * n)

(* The same loops into fresh arrays, allocated once the cells are known to
   be present. *)
let read_i64s r n =
  need_cells r n;
  let a = Array.make n 0 in
  read_i64s_into r a;
  a

let read_f64s r n =
  need_cells r n;
  let a = Array.create_float n in
  read_f64s_into r a;
  a

let str b s =
  u32 b (String.length s);
  Buffer.add_string b s

let read_str r =
  let start = r.pos in
  let n = read_u32 r in
  if n > remaining r then fail ~offset:start "truncated string";
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

(* ---- values and tuples ---- *)

let value b = function
  | Value.Null -> u8 b 0
  | Value.Int n ->
      u8 b 1;
      i64 b n
  | Value.Float x ->
      u8 b 2;
      f64 b x
  | Value.Str s ->
      u8 b 3;
      str b s

(* In place: each [put_*] writes the same bytes as its [Buffer] writer
   at [pos] of [b] and returns the position after them; each [*_size] is
   the byte count. A frame's payload is written once, at its exact size,
   and sealed where it lies ({!seal_frame}). *)
let put_u8 b pos n =
  Bytes.set_uint8 b pos (n land 0xFF);
  pos + 1

let put_u32 b pos n =
  Bytes.set_int32_le b pos (Int32.of_int n);
  pos + 4

let put_i64 b pos n =
  Bytes.set_int64_le b pos (Int64.of_int n);
  pos + 8

let put_f64 b pos x =
  Bytes.set_int64_le b pos (Int64.bits_of_float x);
  pos + 8

let str_size s = 4 + String.length s

let put_str b pos s =
  let n = String.length s in
  Bytes.blit_string s 0 b (put_u32 b pos n) n;
  pos + 4 + n

let value_size = function
  | Value.Null -> 1
  | Value.Int _ | Value.Float _ -> 9
  | Value.Str s -> 1 + str_size s

let put_value b pos = function
  | Value.Null -> put_u8 b pos 0
  | Value.Int n -> put_i64 b (put_u8 b pos 1) n
  | Value.Float x -> put_f64 b (put_u8 b pos 2) x
  | Value.Str s -> put_str b (put_u8 b pos 3) s

let read_value r =
  let start = r.pos in
  match read_u8 r with
  | 0 -> Value.Null
  | 1 -> Value.Int (read_i64 r)
  | 2 -> Value.Float (read_f64 r)
  | 3 -> Value.Str (read_str r)
  | tag -> fail ~offset:start (Printf.sprintf "bad value tag %d" tag)

let tuple b (t : Tuple.t) =
  u32 b (Array.length t);
  Array.iter (value b) t

let tuple_size (t : Tuple.t) = Array.fold_left (fun acc v -> acc + value_size v) 4 t
let put_tuple b pos (t : Tuple.t) = Array.fold_left (put_value b) (put_u32 b pos (Array.length t)) t

let read_tuple r : Tuple.t =
  let start = r.pos in
  let n = read_u32 r in
  (* cheap sanity bound: a tuple cell takes at least one tag byte *)
  if n > remaining r then fail ~offset:start "truncated tuple";
  Array.init n (fun _ -> read_value r)

(* ---- packed keys ---- *)

let key b = function
  | Keypack.P k ->
      u8 b 0;
      i64 b k
  | Keypack.B t ->
      u8 b 1;
      tuple b t

let key_size = function Keypack.P _ -> 9 | Keypack.B t -> 1 + tuple_size t

let put_key b pos = function
  | Keypack.P k -> put_i64 b (put_u8 b pos 0) k
  | Keypack.B t -> put_tuple b (put_u8 b pos 1) t

let read_key r =
  let start = r.pos in
  match read_u8 r with
  | 0 -> Keypack.P (read_i64 r)
  | 1 -> Keypack.B (read_tuple r)
  | tag -> fail ~offset:start (Printf.sprintf "bad key tag %d" tag)

(* ---- checksummed frames ---- *)

(* [len u32][crc32 u32][payload]: the framing used for every WAL record,
   checkpoint body, store page and store meta. A frame only decodes if it
   is completely present and its checksum matches, so a torn tail or
   flipped bit reads as "no frame" — located at the frame's start. *)

let frame_header = 8

let frame b payload =
  u32 b (String.length payload);
  u32 b (Util.Checksum.crc32 payload);
  Buffer.add_string b payload

(* Frame a payload already written at [pos + frame_header] of [b]: its
   length and checksum go into the header at [pos]. *)
let seal_frame b ~pos ~len =
  let crc = Util.Checksum.crc32_bytes b ~pos:(pos + frame_header) ~len in
  Bytes.set_int32_le b pos (Int32.of_int len);
  Bytes.set_int32_le b (pos + 4) (Int32.of_int crc)

(* The payload is checked where it lies and read through a reader bounded
   to it: no copy, and errors inside it keep their true offsets. *)
let read_frame r =
  let start = r.pos in
  let len = read_u32 r in
  let crc = read_u32 r in
  if len > remaining r then fail ~offset:start "truncated frame";
  if Util.Checksum.crc32_sub r.buf ~pos:r.pos ~len <> crc then
    fail ~offset:start "frame checksum mismatch";
  let payload = { buf = r.buf; pos = r.pos; lim = r.pos + len } in
  r.pos <- r.pos + len;
  payload
