(* Checkpoint/restore of maintainer state.

   A checkpoint file is a magic string followed by ONE checksummed frame
   ([Codec.frame]) holding: format version, strategy tag, committed sequence
   number, the base-storage dump (in insertion order), and the exact
   maintained view payloads ([Maintainer.dump_views]). Storing the views
   verbatim — floats by bit pattern — rather than recomputing them on restore
   is what makes recovery bit-identical: a recomputation would re-associate
   float additions and drift in the last ulps.

   Writes go to a [.tmp] sibling and are renamed into place, so a crash
   mid-write never leaves a half checkpoint under the live name. Restore
   walks checkpoints newest first and falls back past any file that fails
   the checksum or decodes badly (bit flips read as "no checkpoint"). *)

open Fivm
module Codec = Relational.Codec
module Cov = Rings.Covariance

let magic = "BORGCKP1"

(* ---- encoding ---- *)

let strategy_tag = function
  | Maintainer.F_ivm -> 0
  | Maintainer.Higher_order -> 1
  | Maintainer.First_order -> 2

let strategy_of_tag = function
  | 0 -> Maintainer.F_ivm
  | 1 -> Maintainer.Higher_order
  | 2 -> Maintainer.First_order
  | n -> Codec.fail (Printf.sprintf "bad strategy tag %d" n)

let encode_update b (u : Delta.update) =
  Codec.str b u.relation;
  Codec.tuple b u.tuple;
  Codec.i64 b u.multiplicity

let decode_update rd : Delta.update =
  let relation = Codec.read_str rd in
  let tuple = Codec.read_tuple rd in
  let multiplicity = Codec.read_i64 rd in
  { relation; tuple; multiplicity }

let encode_list b enc xs =
  Codec.i64 b (List.length xs);
  List.iter (enc b) xs

let decode_list rd dec =
  let n = Codec.read_i64 rd in
  if n < 0 || n > 100_000_000 then
    Codec.fail (Printf.sprintf "implausible list length %d" n);
  List.init n (fun _ -> dec rd)

(* Each triple is tagged 2, the tag of a concrete element since the first
   format; 0 and 1 (a symbolic zero and one) were never written, because
   view trees drop zero entries and every lift is concrete. *)
let encode_cov_payload b e =
  Codec.u8 b 2;
  Cov.encode b e

let decode_cov_payload rd =
  let at = rd.Codec.pos in
  match Codec.read_u8 rd with
  | 2 -> Cov.decode rd
  | n -> Codec.fail ~offset:at (Printf.sprintf "bad payload tag %d" n)

let encode_group enc_payload b (name, entries) =
  Codec.str b name;
  encode_list b
    (fun b (k, p) ->
      Codec.key b k;
      enc_payload b p)
    entries

let decode_group dec_payload rd =
  let name = Codec.read_str rd in
  let entries =
    decode_list rd (fun rd ->
        let k = Codec.read_key rd in
        let p = dec_payload rd in
        (k, p))
  in
  (name, entries)

let encode_views b = function
  | Maintainer.Cov_views groups ->
      Codec.u8 b 0;
      encode_list b (encode_group encode_cov_payload) groups
  | Maintainer.Float_views per_agg ->
      Codec.u8 b 1;
      Codec.i64 b (Array.length per_agg);
      Array.iter (fun groups -> encode_list b (encode_group Codec.f64) groups) per_agg
  | Maintainer.Totals totals ->
      Codec.u8 b 2;
      Codec.i64 b (Array.length totals);
      Array.iter (Codec.f64 b) totals

let decode_views rd : Maintainer.view_dump =
  match Codec.read_u8 rd with
  | 0 -> Maintainer.Cov_views (decode_list rd (decode_group decode_cov_payload))
  | 1 ->
      let n = Codec.read_i64 rd in
      if n < 0 || n > 1_000_000 then
        Codec.fail "implausible aggregate count";
      Maintainer.Float_views
        (Array.init n (fun _ -> decode_list rd (decode_group Codec.read_f64)))
  | 2 ->
      let n = Codec.read_i64 rd in
      if n < 0 || n > 1_000_000 then
        Codec.fail "implausible totals length";
      Maintainer.Totals (Array.init n (fun _ -> Codec.read_f64 rd))
  | n -> Codec.fail (Printf.sprintf "bad views tag %d" n)

(* ---- files ---- *)

let path_of dir seq = Filename.concat dir (Printf.sprintf "checkpoint-%012d.ckpt" seq)

(* (seq, path) of every checkpoint in [dir], newest first. *)
let list dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           match Scanf.sscanf_opt f "checkpoint-%d.ckpt%!" (fun n -> n) with
           | Some seq -> Some (seq, Filename.concat dir f)
           | None -> None)
    |> List.sort (fun (a, _) (b, _) -> compare b a)

let keep = 2

let write ~dir ~seq (m : Maintainer.t) =
  let payload = Buffer.create 4096 in
  Codec.u8 payload 1 (* version *);
  Codec.u8 payload (strategy_tag (Maintainer.strategy_of m));
  Codec.i64 payload seq;
  encode_list payload encode_update (Storage.dump (Maintainer.storage m));
  encode_views payload (Maintainer.dump_views m);
  let file = Buffer.create (Buffer.length payload + 16) in
  Buffer.add_string file magic;
  Codec.frame file (Buffer.contents payload);
  let path = path_of dir seq in
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Buffer.output_buffer oc file);
  Sys.rename tmp path;
  (* prune, keeping the newest [keep] *)
  List.iteri
    (fun i (_, p) -> if i >= keep then try Sys.remove p with Sys_error _ -> ())
    (list dir);
  path

let decode_file path : int * int * Delta.update list * Maintainer.view_dump =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let mlen = String.length magic in
  if String.length s < mlen || String.sub s 0 mlen <> magic then
    Codec.fail "bad magic";
  let rd = Codec.read_frame (Codec.reader ~pos:mlen s) in
  let version = Codec.read_u8 rd in
  if version <> 1 then
    Codec.fail (Printf.sprintf "unsupported version %d" version);
  let tag = Codec.read_u8 rd in
  let seq = Codec.read_i64 rd in
  let storage_dump = decode_list rd decode_update in
  let views = decode_views rd in
  (tag, seq, storage_dump, views)

type restored = { maintainer : Maintainer.t; seq : int }

let restore ~dir ~(make : unit -> Maintainer.t) : restored option * int =
  let corrupt = ref 0 in
  let rec try_candidates = function
    | [] -> None
    | (_, path) :: rest -> (
        match decode_file path with
        | tag, seq, storage_dump, views ->
            let m = make () in
            if
              tag <> strategy_tag (Maintainer.strategy_of m)
              || not (Maintainer.dump_fits m views)
            then begin
              (* someone changed the strategy or the features under the
                 same directory: this checkpoint cannot seed the requested
                 maintainer *)
              incr corrupt;
              try_candidates rest
            end
            else begin
              (* replay the base storage DIRECTLY (no view propagation) in
                 insertion order, then install the exact view payloads *)
              let storage = Maintainer.storage m in
              List.iter (Storage.apply storage) storage_dump;
              Maintainer.restore_views m views;
              Some { maintainer = m; seq }
            end
        | exception (Codec.Decode_error _ | Sys_error _ | End_of_file) ->
            incr corrupt;
            try_candidates rest)
  in
  let r = try_candidates (list dir) in
  (r, !corrupt)

(* Damage injection (fault harness): flip one bit in the newest checkpoint,
   as silent media corruption would. *)
let flip_bit_newest dir =
  match list dir with
  | [] -> ()
  | (_, path) :: _ ->
      let s = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      let n = Bytes.length s in
      if n > 0 then begin
        let i = n / 2 in
        Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0x10));
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc s)
      end
