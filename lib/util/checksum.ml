(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over strings.

   Integrity checking for the resilience layer's on-disk formats (WAL record
   framing and checkpoint payloads) and the store's page frames: a torn
   write or a flipped bit must be detected, not replayed into maintained
   state. The loop is a C stub (checksum_stubs.c), slicing-by-16 over
   little-endian words; its values are those of the bytewise algorithm on
   every host.

   The tables are built at module initialisation, not lazily: the first
   checksums of a process can come from concurrent serving clients, and a
   table filled by two domains at once could be read half-built. *)

external init : unit -> unit = "borg_crc32_init"

external crc32_unsafe :
  string -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "borg_crc32_sub_byte" "borg_crc32_sub"
[@@noalloc]

let () = init ()

let crc32_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Checksum.crc32_sub";
  crc32_unsafe s pos len

let crc32 s = crc32_unsafe s 0 (String.length s)

let crc32_bytes b ~pos ~len = crc32_sub (Bytes.unsafe_to_string b) ~pos ~len
