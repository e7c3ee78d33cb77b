(* Checkpoint/restore of maintainer state.

   A checkpoint file is a magic string followed by ONE checksummed frame
   holding: format version (2), strategy tag, the maintainer's feature
   names in order, committed sequence number, the base-storage dump (in
   insertion order), and the exact maintained view payloads
   ([Maintainer.dump_views]). Storing the views verbatim — floats by bit
   pattern — rather than recomputing them on restore is what makes
   recovery bit-identical: a recomputation would re-associate float
   additions and drift in the last ulps. The file is written once, at its
   exact size, and its frame sealed in place ([Codec.seal_frame]).

   Writes go to a [.tmp] sibling and are renamed into place, so a crash
   mid-write never leaves a half checkpoint under the live name. Restore
   walks checkpoints newest first and falls back past any file that fails
   the checksum or decodes badly (bit flips read as "no checkpoint"), and
   past one written for another strategy or other features. *)

open Fivm
module Codec = Relational.Codec
module Cov = Rings.Covariance

let magic = "BORGCKP1"
let version = 2

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

(* Each [*_size] is the byte count its [put_*] writes. *)
let update_size (u : Delta.update) = Codec.str_size u.relation + Codec.tuple_size u.tuple + 8

let put_update b pos (u : Delta.update) =
  Codec.put_i64 b (Codec.put_tuple b (Codec.put_str b pos u.relation) u.tuple) u.multiplicity

let decode_update rd : Delta.update =
  let relation = Codec.read_str rd in
  let tuple = Codec.read_tuple rd in
  let multiplicity = Codec.read_i64 rd in
  { relation; tuple; multiplicity }

let list_size size xs = List.fold_left (fun acc x -> acc + size x) 8 xs
let put_list put b pos xs = List.fold_left (put b) (Codec.put_i64 b pos (List.length xs)) xs

let decode_list rd dec =
  let n = Codec.read_i64 rd in
  if n < 0 || n > 100_000_000 then
    Codec.fail (Printf.sprintf "implausible list length %d" n);
  List.init n (fun _ -> dec rd)

(* Each triple is tagged 2, the tag of a concrete element since the first
   format; 0 and 1 (a symbolic zero and one) were never written, because
   view trees drop zero entries and every lift is concrete. *)
let cov_size e = 1 + 4 + (8 * Array.length e)

let put_cov b pos e =
  Array.fold_left (Codec.put_f64 b) (Codec.put_u32 b (Codec.put_u8 b pos 2) (Cov.dim e)) e

let decode_cov_payload rd =
  let at = rd.Codec.pos in
  match Codec.read_u8 rd with
  | 2 -> Cov.decode rd
  | n -> Codec.fail ~offset:at (Printf.sprintf "bad payload tag %d" n)

let group_size payload_size (name, entries) =
  Codec.str_size name + list_size (fun (k, p) -> Codec.key_size k + payload_size p) entries

let put_group put_payload b pos (name, entries) =
  put_list (fun b pos (k, p) -> put_payload b (Codec.put_key b pos k) p) b (Codec.put_str b pos name)
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

let views_size = function
  | Maintainer.Cov_views groups -> 1 + list_size (group_size cov_size) groups
  | Maintainer.Float_views per_agg ->
      Array.fold_left (fun acc groups -> acc + list_size (group_size (fun _ -> 8)) groups) 9 per_agg
  | Maintainer.Totals totals -> 9 + (8 * Array.length totals)

let put_views b pos = function
  | Maintainer.Cov_views groups -> put_list (put_group put_cov) b (Codec.put_u8 b pos 0) groups
  | Maintainer.Float_views per_agg ->
      Array.fold_left
        (put_list (put_group Codec.put_f64) b)
        (Codec.put_i64 b (Codec.put_u8 b pos 1) (Array.length per_agg))
        per_agg
  | Maintainer.Totals totals ->
      Array.fold_left (Codec.put_f64 b)
        (Codec.put_i64 b (Codec.put_u8 b pos 2) (Array.length totals))
        totals

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
  let dump = Storage.dump (Maintainer.storage m) and views = Maintainer.dump_views m in
  let features = Maintainer.features m in
  let len =
    1 + 1 + list_size Codec.str_size features + 8 + list_size update_size dump + views_size views
  in
  let mlen = String.length magic in
  let file = Bytes.create (mlen + Codec.frame_header + len) in
  Bytes.blit_string magic 0 file 0 mlen;
  let pos = Codec.put_u8 file (mlen + Codec.frame_header) version in
  let pos = Codec.put_u8 file pos (strategy_tag (Maintainer.strategy_of m)) in
  let pos = put_list Codec.put_str file pos features in
  let pos = put_list put_update file (Codec.put_i64 file pos seq) dump in
  let pos = put_views file pos views in
  assert (pos = Bytes.length file);
  Codec.seal_frame file ~pos:mlen ~len;
  let path = path_of dir seq in
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_bytes oc file);
  Sys.rename tmp path;
  (* prune, keeping the newest [keep] *)
  List.iteri
    (fun i (_, p) -> if i >= keep then try Sys.remove p with Sys_error _ -> ())
    (list dir);
  path

let decode_file path : int * string list * int * Delta.update list * Maintainer.view_dump =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let mlen = String.length magic in
  if String.length s < mlen || String.sub s 0 mlen <> magic then
    Codec.fail "bad magic";
  let rd = Codec.read_frame (Codec.reader ~pos:mlen s) in
  let v = Codec.read_u8 rd in
  if v <> version then Codec.fail (Printf.sprintf "unsupported version %d" v);
  let tag = Codec.read_u8 rd in
  let features = decode_list rd Codec.read_str in
  let seq = Codec.read_i64 rd in
  let storage_dump = decode_list rd decode_update in
  let views = decode_views rd in
  (tag, features, seq, storage_dump, views)

type restored = { maintainer : Maintainer.t; seq : int }
type skipped = { corrupt : int; misfit : int }

let restore ~dir ~(make : unit -> Maintainer.t) : restored option * skipped =
  let corrupt = ref 0 and misfit = ref 0 in
  let rec try_candidates = function
    | [] -> None
    | (_, path) :: rest -> (
        match decode_file path with
        | tag, features, seq, storage_dump, views ->
            let m = make () in
            if
              tag <> strategy_tag (Maintainer.strategy_of m)
              || features <> Maintainer.features m
              || not (Maintainer.dump_fits m views)
            then begin
              (* someone changed the strategy or the features under the
                 same directory: this checkpoint cannot seed the requested
                 maintainer *)
              incr misfit;
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
  (r, { corrupt = !corrupt; misfit = !misfit })

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
