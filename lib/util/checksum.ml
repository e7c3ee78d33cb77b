(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over strings.

   Integrity checking for the resilience layer's on-disk formats (WAL record
   framing and checkpoint payloads) and the store's page frames: a torn
   write or a flipped bit must be detected, not replayed into maintained
   state. Slicing-by-8: eight 256-entry tables, [table k] advancing a byte
   through k further zero bytes, let the loop fold eight bytes per step
   from two 32-bit little-endian reads (a 64-bit read would lose its top
   bit in an OCaml int); the tail runs a byte at a time on [table 0], the
   classic table. The values are those of the bytewise algorithm.

   The tables are built at module initialisation, not lazily: forcing one
   lazy value from two domains at once raises [CamlinternalLazy.Undefined],
   and the first checksums of a process can come from concurrent serving
   clients. *)

(* [tables.(k * 256 + n)]: table k at byte n. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let[@inline] at k n = Array.unsafe_get tables ((k lsl 8) lor n)
let[@inline] word s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

let crc32_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Checksum.crc32_sub";
  let c = ref 0xFFFFFFFF and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let one = !c lxor word s !i and two = word s (!i + 4) in
    c :=
      at 7 (one land 0xFF)
      lxor at 6 ((one lsr 8) land 0xFF)
      lxor at 5 ((one lsr 16) land 0xFF)
      lxor at 4 (one lsr 24)
      lxor at 3 (two land 0xFF)
      lxor at 2 ((two lsr 8) land 0xFF)
      lxor at 1 ((two lsr 16) land 0xFF)
      lxor at 0 (two lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := at 0 ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_sub s ~pos:0 ~len:(String.length s)

let crc32_bytes b ~pos ~len = crc32_sub (Bytes.unsafe_to_string b) ~pos ~len
