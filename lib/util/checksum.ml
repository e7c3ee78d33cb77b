(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over strings.

   Integrity checking for the resilience layer's on-disk formats (WAL record
   framing and checkpoint payloads): a torn write or a flipped bit must be
   detected, not replayed into maintained state. Table-driven, byte at a
   time — plenty for update-record-sized inputs.

   The table is built at module initialisation, not lazily: forcing one
   lazy value from two domains at once raises [CamlinternalLazy.Undefined],
   and the first checksums of a process can come from concurrent serving
   clients. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Checksum.crc32_sub";
  let t = table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := t.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_sub s ~pos:0 ~len:(String.length s)

let crc32_bytes b ~pos ~len = crc32_sub (Bytes.unsafe_to_string b) ~pos ~len
