(* Append-only write-ahead log of delta updates.

   One checksummed frame per record (length, CRC-32, payload), written
   once at its exact size and sealed in place ([Codec.seal_frame]);
   each record carries the sequence number the update commits as, so replay
   after a checkpoint restore can skip the prefix already covered by the
   checkpoint. Appends flush before returning — a record that [append]
   acknowledged survives a crash, and recovery applies it.

   Replay is truncation-tolerant: a torn tail (partial frame, or a frame
   whose checksum no longer matches) ends the replay at the last valid
   record instead of raising; the caller repairs the file with {!truncate}
   before appending again, so later records never sit behind garbage. *)

module Codec = Relational.Codec

type record = { seq : int; update : Fivm.Delta.update }

(* One framed record, built in place. *)
let framed (r : record) =
  let u = r.update in
  let len = 8 + Codec.str_size u.relation + Codec.tuple_size u.tuple + 8 in
  let b = Bytes.create (Codec.frame_header + len) in
  let pos = Codec.put_i64 b Codec.frame_header r.seq in
  let pos = Codec.put_str b pos u.relation in
  let pos = Codec.put_tuple b pos u.tuple in
  ignore (Codec.put_i64 b pos u.multiplicity);
  Codec.seal_frame b ~pos:0 ~len;
  b

let decode_record rd : record =
  let seq = Codec.read_i64 rd in
  let relation = Codec.read_str rd in
  let tuple = Codec.read_tuple rd in
  let multiplicity = Codec.read_i64 rd in
  { seq; update = { Fivm.Delta.relation; tuple; multiplicity } }

type writer = { path : string; oc : out_channel }

let open_append path =
  {
    path;
    oc = open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path;
  }

let append w r =
  output_bytes w.oc (framed r);
  flush w.oc

let close w = close_out_noerr w.oc

type replay = { records : record list; valid_bytes : int; torn : bool }

let replay path : replay =
  if not (Sys.file_exists path) then { records = []; valid_bytes = 0; torn = false }
  else begin
    let s = In_channel.with_open_bin path In_channel.input_all in
    let rd = Codec.reader s in
    let records = ref [] and valid = ref 0 and torn = ref false in
    (try
       while not (Codec.eof rd) do
         records := decode_record (Codec.read_frame rd) :: !records;
         valid := rd.Codec.pos
       done
     with Codec.Decode_error _ -> torn := true);
    { records = List.rev !records; valid_bytes = !valid; torn = !torn }
  end

let truncate path ~len = if Sys.file_exists path then Unix.truncate path len

let size path = if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0

(* Damage injection (fault harness): shear [bytes] off the end of the log,
   simulating a write torn mid-frame by a crash. *)
let shear_tail path ~bytes =
  let n = size path in
  if n > 0 then Unix.truncate path (max 0 (n - bytes))

let rewrite path (records : record list) =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun r -> Out_channel.output_bytes oc (framed r)) records)

(* Damage injection: reverse the order of the last [frames] valid records,
   simulating a log whose tail was flushed out of sequence (seqs arrive
   non-monotone at replay). A torn suffix, if any, is dropped in the
   rewrite — the crash that fires this damage would have torn it anyway. *)
let reorder_tail path ~frames =
  if frames > 1 then begin
    let rp = replay path in
    let n = List.length rp.records in
    if n > 1 then begin
      let k = min frames n in
      let head = ref [] and tail = ref [] in
      List.iteri
        (fun i r -> if i < n - k then head := r :: !head else tail := r :: !tail)
        rp.records;
      rewrite path (List.rev !head @ !tail)
    end
  end

(* Damage injection: append byte-identical copies of the last [frames] valid
   records, simulating a retried flush that re-sent an acknowledged window —
   replay sees duplicated (and, for [frames] > 1, non-monotone) seqs. *)
let dup_tail path ~frames =
  if frames > 0 then begin
    let rp = replay path in
    let n = List.length rp.records in
    if n > 0 then begin
      let k = min frames n in
      let dup = List.filteri (fun i _ -> i >= n - k) rp.records in
      rewrite path (rp.records @ dup)
    end
  end
