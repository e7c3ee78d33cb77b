(* Tests for the resilience layer: codec round-trips, WAL torn-tail
   tolerance, checkpoint/restore, and — the core promise — crash recovery
   that is BIT-IDENTICAL to a run with no crash, for seeded update streams
   across all three maintenance strategies and every injected fault shape
   (plain crash, torn WAL tail, bit-flipped newest checkpoint). *)

open Relational
module Cov = Rings.Covariance
module M = Fivm.Maintainer
module Delta = Fivm.Delta
module Wal = Resilience.Wal
module Checkpoint = Resilience.Checkpoint
module Faults = Resilience.Faults
module Driver = Resilience.Driver
module Sg = Datagen.Stream_gen

let int n = Value.Int n
let flt x = Value.Float x

(* The star workload with arbitrary floats in [0, 5): recovery replays in
   commit order, so even order-sensitive sums must come back bit for bit. *)
let features = Sg.star_features
let make strategy () = M.create strategy (Sg.star_database ()) ~features
let stream ~seed ~steps = Sg.star_stream ~draw:Sg.Uniform ~seed steps
let bits = Int64.bits_of_float

(* Reference: the same stream through a bare maintainer, no driver. *)
let clean_covariance strategy updates =
  let m = make strategy () in
  List.iter (M.apply m) updates;
  M.covariance m

(* Drive [updates] through a driver that may crash; on {!Faults.Crash},
   rebuild the driver from disk (the recovery path) and resume the stream
   from its recovered sequence number. *)
let run_resilient ~cfg ~strategy updates =
  let n = List.length updates in
  let arr = Array.of_list updates in
  let rec go attempts d =
    if attempts > 25 then failwith "crash loop";
    let from = Driver.seq d in
    match
      for i = from to n - 1 do
        ignore (Driver.submit d arr.(i))
      done
    with
    | () -> d
    | exception Faults.Crash _ -> go (attempts + 1) (Driver.create cfg (make strategy))
  in
  go 0 (Driver.create cfg (make strategy))

(* ---- codec round-trips ---- *)

let test_codec_roundtrip () =
  let module C = Codec in
  let b = Buffer.create 64 in
  C.value b Value.Null;
  C.value b (int 42);
  C.value b (flt (-0.0));
  C.value b (Value.Str "hello");
  C.tuple b [| int 1; flt nan; Value.Str "" |];
  C.key b (Keypack.P 123456789);
  C.key b (Keypack.B [| int 7; Value.Str "x" |]);
  C.i64 b min_int;
  C.f64 b infinity;
  let rd = C.reader (Buffer.contents b) in
  Alcotest.(check bool) "null" true (C.read_value rd = Value.Null);
  Alcotest.(check bool) "int" true (C.read_value rd = int 42);
  (match C.read_value rd with
  | Value.Float f -> Alcotest.(check bool) "-0.0 bits" true (bits f = bits (-0.0))
  | _ -> Alcotest.fail "expected float");
  Alcotest.(check bool) "str" true (C.read_value rd = Value.Str "hello");
  (match C.read_tuple rd with
  | [| Value.Int 1; Value.Float f; Value.Str "" |] ->
      Alcotest.(check bool) "nan bits" true (bits f = bits nan)
  | _ -> Alcotest.fail "tuple mismatch");
  Alcotest.(check bool) "packed key" true (C.read_key rd = Keypack.P 123456789);
  Alcotest.(check bool) "boxed key" true
    (match C.read_key rd with
    | Keypack.B t -> Tuple.equal t [| int 7; Value.Str "x" |]
    | _ -> false);
  Alcotest.(check int) "min_int" min_int (C.read_i64 rd);
  Alcotest.(check bool) "inf" true (C.read_f64 rd = infinity);
  Alcotest.(check bool) "eof" true (C.eof rd);
  (* the in-place writer gives the same bytes, of the announced size *)
  let values = [ Value.Null; int (-42); flt (-0.0); Value.Str "hello" ] in
  let b = Buffer.create 32 in
  List.iter (C.value b) values;
  let d = Bytes.create (List.fold_left (fun n v -> n + C.value_size v) 0 values) in
  let stop = List.fold_left (fun p v -> C.put_value d p v) 0 values in
  Alcotest.(check int) "put_value fills value_size" (Bytes.length d) stop;
  Alcotest.(check string) "put_value = value" (Buffer.contents b) (Bytes.to_string d)

let test_frame_rejects_damage () =
  let module C = Codec in
  let b = Buffer.create 32 in
  C.frame b "payload bytes";
  let s = Buffer.contents b in
  (* the payload is read in place, after the 8-byte header *)
  let payload = C.read_frame (C.reader s) in
  Alcotest.(check int) "payload in place" C.frame_header payload.C.pos;
  Alcotest.(check string) "roundtrip" "payload bytes"
    (String.sub payload.C.buf payload.C.pos (C.remaining payload));
  (* truncation *)
  (try
     ignore (C.read_frame (C.reader (String.sub s 0 (String.length s - 1))));
     Alcotest.fail "truncated frame accepted"
   with C.Decode_error _ -> ());
  (* bit flip *)
  let d = Bytes.of_string s in
  Bytes.set d 10 (Char.chr (Char.code (Bytes.get d 10) lxor 1));
  try
    ignore (C.read_frame (C.reader (Bytes.to_string d)));
    Alcotest.fail "corrupt frame accepted"
  with C.Decode_error _ -> ()

let cov_codec_roundtrip =
  QCheck2.Test.make ~count:100 ~name:"covariance codec is bit-identical"
    QCheck2.Gen.(pair (int_range 1 6) int)
    (fun (dim, seed) ->
      let rng = Util.Prng.create seed in
      let acc = Cov.Acc.create dim in
      for _ = 1 to 10 do
        Cov.Acc.add_tuple acc
          (Array.init dim (fun _ -> Util.Prng.gaussian rng ~mu:0.0 ~sigma:100.0))
      done;
      let c = Cov.Acc.freeze acc in
      let b = Buffer.create 256 in
      Cov.encode b c;
      let c' = Cov.decode (Codec.reader (Buffer.contents b)) in
      Cov.equal_bits c c')

(* A payload that claims dimension 4,096 but holds only c and s: the
   decoder must see that the 4,096² products are missing before it
   allocates room for them (128 MiB). *)
let test_cov_decode_checks_before_allocating () =
  let n = 4096 in
  let b = Buffer.create (4 + (8 * (n + 1))) in
  Codec.u32 b n;
  for _ = 0 to n do
    Codec.f64 b 1.0
  done;
  let payload = Buffer.contents b in
  let before = Gc.allocated_bytes () in
  let offset =
    match Cov.decode (Codec.reader payload) with
    | _ -> Alcotest.fail "a truncated triple decoded"
    | exception Codec.Decode_error e -> e.Codec.offset
  in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "located at the first missing product" (String.length payload) offset;
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f bytes, under 1 MiB" allocated)
    true (allocated < 1048576.0)

(* ---- WAL ---- *)

(* A record is written in place at its exact size; its bytes are the frame
   [Codec.frame] makes of the same fields written into a [Buffer]: seq,
   relation, tuple, multiplicity. Values of every tag, -0.0 and wide
   strings included. *)
let test_wal_bytes_match_buffer_framing () =
  Scenario.with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "wal.log" in
  let records =
    List.mapi
      (fun i tuple -> { Wal.seq = i + 1; update = Delta.delete (Printf.sprintf "R%d" i) tuple })
      [
        [| int 1; flt (-0.0); Value.Str "x" |];
        [| Value.Null; int min_int; flt Float.nan |];
        [| Value.Str (String.make 300 'y') |];
        [||];
      ]
  in
  let w = Wal.open_append path in
  List.iter (Wal.append w) records;
  Wal.close w;
  let expected = Buffer.create 256 in
  List.iter
    (fun (r : Wal.record) ->
      let payload = Buffer.create 64 in
      Codec.i64 payload r.seq;
      Codec.str payload r.update.relation;
      Codec.tuple payload r.update.tuple;
      Codec.i64 payload r.update.multiplicity;
      Codec.frame expected (Buffer.contents payload))
    records;
  Alcotest.(check string) "file bytes" (Buffer.contents expected)
    (In_channel.with_open_bin path In_channel.input_all)


let test_wal_roundtrip_and_torn_tail () =
  Scenario.with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "wal.log" in
  let us = stream ~seed:11 ~steps:20 in
  let w = Wal.open_append path in
  List.iteri (fun i u -> Wal.append w { Wal.seq = i + 1; update = u }) us;
  Wal.close w;
  let rp = Wal.replay path in
  Alcotest.(check int) "all records" 20 (List.length rp.Wal.records);
  Alcotest.(check bool) "not torn" false rp.Wal.torn;
  Alcotest.(check int) "valid = size" (Wal.size path) rp.Wal.valid_bytes;
  List.iteri
    (fun i (r : Wal.record) ->
      Alcotest.(check int) "seq order" (i + 1) r.seq)
    rp.Wal.records;
  (* shear mid-frame: replay keeps the valid prefix, flags torn, no raise *)
  Wal.shear_tail path ~bytes:3;
  let rp = Wal.replay path in
  Alcotest.(check bool) "torn" true rp.Wal.torn;
  Alcotest.(check int) "lost exactly the last record" 19 (List.length rp.Wal.records);
  (* repair + append again: the log stays replayable *)
  Wal.truncate path ~len:rp.Wal.valid_bytes;
  let w = Wal.open_append path in
  Wal.append w { Wal.seq = 20; update = List.nth us 19 };
  Wal.close w;
  let rp = Wal.replay path in
  Alcotest.(check bool) "repaired" false rp.Wal.torn;
  Alcotest.(check int) "complete again" 20 (List.length rp.Wal.records)

(* ---- checkpoint ---- *)

(* A restore's skipped checkpoints as (misfit, corrupt). *)
let skips (s : Checkpoint.skipped) = (s.Checkpoint.misfit, s.Checkpoint.corrupt)
let misfit_corrupt = Alcotest.(pair int int)

let test_checkpoint_roundtrip () =
  Scenario.with_temp_dir @@ fun dir ->
  List.iter
    (fun strategy ->
      let m = make strategy () in
      List.iter (M.apply m) (stream ~seed:5 ~steps:60);
      ignore (Checkpoint.write ~dir ~seq:60 m);
      let restored, skipped = Checkpoint.restore ~dir ~make:(make strategy) in
      Alcotest.(check misfit_corrupt) "nothing skipped" (0, 0) (skips skipped);
      match restored with
      | None -> Alcotest.fail "no checkpoint restored"
      | Some r ->
          Alcotest.(check int) "seq" 60 r.Checkpoint.seq;
          Alcotest.(check bool)
            (M.strategy_name strategy ^ ": state restored bit-identically")
            true
            (Cov.equal_bits (M.covariance m) (M.covariance r.Checkpoint.maintainer));
          (* and the restored maintainer keeps maintaining identically *)
          let tail = stream ~seed:6 ~steps:30 in
          List.iter (M.apply m) tail;
          List.iter (M.apply r.Checkpoint.maintainer) tail;
          Alcotest.(check bool) "continues bit-identically" true
            (Cov.equal_bits (M.covariance m)
               (M.covariance r.Checkpoint.maintainer)))
    [ M.F_ivm; M.Higher_order; M.First_order ]

(* Maintained state pinned on a fixed real-valued insert/delete stream: per
   strategy, the CRC-32 of its checkpoint file (storage dump plus the exact
   view payloads) and of its recomputed triple. The pins guard the orders
   real-valued sums are taken in: a view tree's parent consumes a level's
   deltas in insertion order and walks its buckets newest first, and the
   recompute walks live rows in row order. A reordered accumulation, in
   maintenance or in recomputation, fails here, and every moved pin is
   listed. *)
let pinned_crcs =
  [ (M.F_ivm, 0x89bff5b4, 0x3c86759f); (M.Higher_order, 0x7ab7139f, 0x3c86759f) ]

let test_state_pinned () =
  Scenario.with_temp_dir @@ fun dir ->
  let hex = Printf.sprintf "%08x" in
  let mismatches =
    List.concat
      (List.mapi
         (fun i (strategy, checkpoint, recomputed) ->
           let name = M.strategy_name strategy in
           let m = make strategy () in
           List.iter (M.apply m) (stream ~seed:2024 ~steps:600);
           let path = Checkpoint.write ~dir ~seq:(i + 1) m in
           let file = In_channel.with_open_bin path In_channel.input_all in
           let b = Buffer.create 256 in
           Cov.encode b (M.recompute m);
           List.filter_map
             (fun (what, pinned, crc) ->
               if crc = pinned then None
               else
                 Some (Printf.sprintf "%s %s: pinned %s, now %s" name what (hex pinned) (hex crc)))
             [
               ("checkpoint", checkpoint, Util.Checksum.crc32 file);
               ("recompute", recomputed, Util.Checksum.crc32 (Buffer.contents b));
             ])
         pinned_crcs)
  in
  Alcotest.(check (list string)) "every pinned CRC-32" [] mismatches

let test_checkpoint_corruption_falls_back () =
  Scenario.with_temp_dir @@ fun dir ->
  let m = make M.F_ivm () in
  let us = stream ~seed:7 ~steps:40 in
  List.iteri
    (fun i u ->
      M.apply m u;
      if i = 19 then ignore (Checkpoint.write ~dir ~seq:20 m))
    us;
  ignore (Checkpoint.write ~dir ~seq:40 m);
  Checkpoint.flip_bit_newest dir;
  let restored, skipped = Checkpoint.restore ~dir ~make:(make M.F_ivm) in
  Alcotest.(check misfit_corrupt) "one corrupt checkpoint skipped" (0, 1) (skips skipped);
  (match restored with
  | Some r -> Alcotest.(check int) "fell back to the older checkpoint" 20 r.Checkpoint.seq
  | None -> Alcotest.fail "older checkpoint not restored");
  (* both checkpoints corrupt: restore degrades to empty, still no raise *)
  let files = Checkpoint.list dir in
  List.iter
    (fun (_, p) ->
      let s = Bytes.of_string (In_channel.with_open_bin p In_channel.input_all) in
      Bytes.set s (Bytes.length s - 1) 'X';
      Out_channel.with_open_bin p (fun oc -> Out_channel.output_bytes oc s))
    files;
  let restored, skipped = Checkpoint.restore ~dir ~make:(make M.F_ivm) in
  Alcotest.(check misfit_corrupt) "both skipped as corrupt" (0, 2) (skips skipped);
  Alcotest.(check bool) "empty start" true (restored = None)

(* A file patched and resealed, so that only its checksum holds, is
   refused, and restore falls back to the previous checkpoint: a version-1
   file (written before checkpoints named their features) and an F-IVM
   entry tagged 1 (a symbolic one, which no writer produces). The version
   byte opens the frame. The newest file's last entry ends it: its tag byte
   is 109 bytes from the end at dimension 3 (tag, u32 dim, 13 cells). *)
let test_checkpoint_refuses_patched () =
  let magic = 8 in
  List.iter
    (fun (what, at) ->
      Scenario.with_temp_dir @@ fun dir ->
      let m = make M.F_ivm () in
      List.iteri
        (fun i u ->
          M.apply m u;
          if i = 19 then ignore (Checkpoint.write ~dir ~seq:20 m))
        (stream ~seed:8 ~steps:40);
      let path = Checkpoint.write ~dir ~seq:40 m in
      let s = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      let at = at (Bytes.length s) in
      Alcotest.(check int) what 2 (Char.code (Bytes.get s at));
      Bytes.set s at '\001';
      Codec.seal_frame s ~pos:magic ~len:(Bytes.length s - magic - Codec.frame_header);
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc s);
      let restored, skipped = Checkpoint.restore ~dir ~make:(make M.F_ivm) in
      Alcotest.(check misfit_corrupt) (what ^ " 1: the checkpoint is refused as corrupt") (0, 1)
        (skips skipped);
      match restored with
      | Some r -> Alcotest.(check int) "fell back to the older checkpoint" 20 r.Checkpoint.seq
      | None -> Alcotest.fail "older checkpoint not restored")
    [
      ("the version", fun _ -> magic + Codec.frame_header);
      ("the last entry's tag", fun n -> n - (1 + 4 + (8 * 13)));
    ]

(* A checkpoint written over features m, u, v cannot seed a maintainer over
   u, v (another triple dimension, tree count or totals length): restore
   skips it as a misfit, like a strategy mismatch, and takes the older
   checkpoint that fits, which keeps maintaining. *)
let test_checkpoint_shape_mismatch_skipped () =
  List.iter
    (fun strategy ->
      Scenario.with_temp_dir @@ fun dir ->
      let name = M.strategy_name strategy in
      let narrow () = M.create strategy (Sg.star_database ()) ~features:[ "u"; "v" ] in
      let updates = stream ~seed:9 ~steps:30 in
      let fits = narrow () in
      List.iter (M.apply fits) updates;
      ignore (Checkpoint.write ~dir ~seq:10 fits);
      let wide = make strategy () in
      List.iter (M.apply wide) updates;
      ignore (Checkpoint.write ~dir ~seq:20 wide);
      let restored, skipped = Checkpoint.restore ~dir ~make:narrow in
      Alcotest.(check misfit_corrupt) (name ^ ": the wide checkpoint is a misfit") (1, 0)
        (skips skipped);
      match restored with
      | None -> Alcotest.fail (name ^ ": the fitting checkpoint was not restored")
      | Some r ->
          Alcotest.(check int) (name ^ ": restored the fitting checkpoint") 10 r.Checkpoint.seq;
          let tail = stream ~seed:10 ~steps:20 in
          List.iter (M.apply fits) tail;
          List.iter (M.apply r.Checkpoint.maintainer) tail;
          Alcotest.(check bool) (name ^ ": keeps maintaining") true
            (Cov.equal_bits (M.covariance fits) (M.covariance r.Checkpoint.maintainer)))
    [ M.F_ivm; M.Higher_order; M.First_order ]

(* Maintained over m, u, v and restored into a maintainer over v, u, m,
   an F-IVM checkpoint is refused: its feature names differ, and its dump
   does not fit either (D2's view triples hold v's sums at the feature
   slot that D2 no longer owns). Restore counts the checkpoint a misfit and
   installs nothing. *)
let test_checkpoint_feature_order_refused () =
  Scenario.with_temp_dir @@ fun dir ->
  let m = make M.F_ivm () in
  List.iter (M.apply m) (stream ~seed:3 ~steps:40);
  ignore (Checkpoint.write ~dir ~seq:40 m);
  let reordered () = M.create M.F_ivm (Sg.star_database ()) ~features:[ "v"; "u"; "m" ] in
  let restored, skipped = Checkpoint.restore ~dir ~make:reordered in
  Alcotest.(check misfit_corrupt) "the reordered checkpoint is a misfit" (1, 0) (skips skipped);
  Alcotest.(check bool) "nothing restored" true (restored = None);
  (* the same order restores *)
  let restored, skipped = Checkpoint.restore ~dir ~make:(make M.F_ivm) in
  Alcotest.(check misfit_corrupt) "the same order fits" (0, 0) (skips skipped);
  Alcotest.(check bool) "restored" true (restored <> None)

(* The star schema with a second feature on D1, w = 2u + 1, so that one
   relation owns two features. *)
let two_feature_database () =
  Database.create "star-uw"
    [
      Relation.create "F"
        (Schema.make [ ("a", Value.TInt); ("b", Value.TInt); ("m", Value.TFloat) ]);
      Relation.create "D1"
        (Schema.make [ ("a", Value.TInt); ("u", Value.TFloat); ("w", Value.TFloat) ]);
      Relation.create "D2" (Schema.make [ ("b", Value.TInt); ("v", Value.TFloat) ]);
    ]

let with_w (u : Delta.update) =
  match u.tuple with
  | [| a; Value.Float x |] when u.relation = "D1" ->
      { u with tuple = [| a; flt x; flt ((2.0 *. x) +. 1.0) |] }
  | _ -> u

(* Features m, u, w, v and m, w, u, v give every strategy dumps of one
   shape: D1's nodes hold u and w either way, and the tree count and
   totals length follow the feature count. Only the names in the file tell
   them apart, and restore must refuse the checkpoint for each strategy:
   installed, its state would disagree with a recompute. *)
let test_checkpoint_swapped_features_refused () =
  List.iter
    (fun strategy ->
      Scenario.with_temp_dir @@ fun dir ->
      let name = M.strategy_name strategy in
      let over features () = M.create strategy (two_feature_database ()) ~features in
      let m = over [ "m"; "u"; "w"; "v" ] () in
      List.iter (fun u -> M.apply m (with_w u)) (stream ~seed:4 ~steps:40);
      ignore (Checkpoint.write ~dir ~seq:40 m);
      let restored, skipped = Checkpoint.restore ~dir ~make:(over [ "m"; "w"; "u"; "v" ]) in
      Alcotest.(check misfit_corrupt) (name ^ ": the swapped checkpoint is a misfit") (1, 0)
        (skips skipped);
      Alcotest.(check bool) (name ^ ": nothing restored") true (restored = None);
      let restored, skipped = Checkpoint.restore ~dir ~make:(over [ "m"; "u"; "w"; "v" ]) in
      Alcotest.(check misfit_corrupt) (name ^ ": the same features fit") (0, 0) (skips skipped);
      match restored with
      | None -> Alcotest.fail (name ^ ": the checkpoint was not restored")
      | Some r ->
          Alcotest.(check bool) (name ^ ": restored bit-identically") true
            (Cov.equal_bits (M.covariance m) (M.covariance r.Checkpoint.maintainer)))
    [ M.F_ivm; M.Higher_order; M.First_order ]

(* A checkpoint written under one strategy cannot seed another: restore
   counts it a misfit, not corrupt, and installs nothing. *)
let test_checkpoint_other_strategy_misfit () =
  List.iter
    (fun (written, wanted) ->
      Scenario.with_temp_dir @@ fun dir ->
      let m = make written () in
      List.iter (M.apply m) (stream ~seed:12 ~steps:30);
      ignore (Checkpoint.write ~dir ~seq:30 m);
      let restored, skipped = Checkpoint.restore ~dir ~make:(make wanted) in
      let what = M.strategy_name written ^ " into " ^ M.strategy_name wanted in
      Alcotest.(check misfit_corrupt) (what ^ ": a misfit") (1, 0) (skips skipped);
      Alcotest.(check bool) (what ^ ": nothing restored") true (restored = None))
    [ (M.F_ivm, M.Higher_order); (M.Higher_order, M.First_order); (M.First_order, M.F_ivm) ]

(* ---- the core promise: crash recovery is bit-identical ---- *)

let crash_recovery_bit_identical strategy =
  QCheck2.Test.make ~count:35
    ~name:
      (Printf.sprintf "%s: crash recovery is bit-identical" (M.strategy_name strategy))
    QCheck2.Gen.(triple (int_range 20 120) (int_range 0 3) int)
    (fun (steps, fault_kind, seed) ->
      let updates = stream ~seed ~steps in
      let reference = clean_covariance strategy updates in
      let crash_at = 1 + (abs seed mod steps) in
      let spec =
        match fault_kind with
        | 0 -> Printf.sprintf "crash-after:%d" crash_at
        | 1 -> Printf.sprintf "crash-before:%d" crash_at
        | 2 -> Printf.sprintf "crash-after:%d,torn-tail:5" crash_at
        | _ -> Printf.sprintf "crash-after:%d,flip-checkpoint" crash_at
      in
      Scenario.with_temp_dir @@ fun dir ->
      let faults = Faults.parse ~seed spec in
      let cfg = Driver.config ~checkpoint_every:16 ~faults dir in
      let d = run_resilient ~cfg ~strategy updates in
      Driver.seq d = List.length updates
      && Cov.equal_bits reference (Driver.covariance d))

let test_clean_restart_bit_identical () =
  (* no faults at all: stop half way (close = checkpoint), restart, finish *)
  List.iter
    (fun strategy ->
      let updates = stream ~seed:42 ~steps:100 in
      let reference = clean_covariance strategy updates in
      Scenario.with_temp_dir @@ fun dir ->
      let cfg = Driver.config ~checkpoint_every:32 dir in
      let d = Driver.create cfg (make strategy) in
      List.iteri (fun i u -> if i < 50 then ignore (Driver.submit d u)) updates;
      Driver.close d;
      let d = Driver.create cfg (make strategy) in
      Alcotest.(check int) "resumed at 50" 50 (Driver.seq d);
      List.iteri (fun i u -> if i >= 50 then ignore (Driver.submit d u)) updates;
      Alcotest.(check bool)
        (M.strategy_name strategy ^ ": restart is bit-identical")
        true
        (Cov.equal_bits reference (Driver.covariance d)))
    [ M.F_ivm; M.Higher_order; M.First_order ]

(* ---- counters: recoveries and torn tails are observable ---- *)

let test_recovery_counters () =
  Obs.reset ();
  Obs.with_enabled true @@ fun () ->
  Scenario.with_temp_dir @@ fun dir ->
  let updates = stream ~seed:13 ~steps:60 in
  let faults = Faults.parse ~seed:13 "crash-after:30,torn-tail:4" in
  let cfg = Driver.config ~checkpoint_every:16 ~faults dir in
  let d = run_resilient ~cfg ~strategy:M.F_ivm updates in
  Alcotest.(check int) "committed" 60 (Driver.seq d);
  Alcotest.(check bool) "resilience.recoveries > 0" true
    (Obs.counter_value_by_name "resilience.recoveries" > 0);
  Alcotest.(check bool) "resilience.wal_torn > 0" true
    (Obs.counter_value_by_name "resilience.wal_torn" > 0);
  Alcotest.(check bool) "resilience.wal_records >= stream" true
    (Obs.counter_value_by_name "resilience.wal_records" >= 60);
  Alcotest.(check bool) "resilience.checkpoints > 0" true
    (Obs.counter_value_by_name "resilience.checkpoints" > 0);
  Obs.reset ()

(* A directory holding only a checkpoint for other features: recovery
   counts it in resilience.checkpoint_misfit, not as corruption, and starts
   empty. *)
let test_recovery_counts_misfits () =
  Obs.reset ();
  Obs.with_enabled true @@ fun () ->
  Scenario.with_temp_dir @@ fun dir ->
  let m = make M.F_ivm () in
  List.iter (M.apply m) (stream ~seed:14 ~steps:20);
  ignore (Checkpoint.write ~dir ~seq:20 m);
  let narrow () = M.create M.F_ivm (Sg.star_database ()) ~features:[ "u"; "v" ] in
  let d = Driver.create (Driver.config dir) narrow in
  Alcotest.(check int) "starts empty" 0 (Driver.seq d);
  let c = Obs.counter_value_by_name in
  Alcotest.(check (list int)) "checkpoint_misfit, checkpoint_corrupt, recoveries" [ 1; 0; 1 ]
    [ c "resilience.checkpoint_misfit"; c "resilience.checkpoint_corrupt"; c "resilience.recoveries" ];
  Driver.close d;
  Obs.reset ()

(* ---- quarantine ---- *)

let test_quarantine () =
  Obs.reset ();
  Obs.with_enabled true @@ fun () ->
  Scenario.with_temp_dir @@ fun dir ->
  let cfg = Driver.config dir in
  let d = Driver.create cfg (make M.F_ivm) in
  let good = Delta.insert "F" [| int 1; int 2; flt 3.0 |] in
  let bad =
    [
      Delta.insert "Nope" [| int 1 |];
      Delta.insert "F" [| int 1; int 2 |];
      Delta.insert "F" [| int 1; flt 2.0; flt 3.0 |];
      Delta.insert "F" [| int 1; int 2; flt nan |];
      Delta.insert "D1" [| int 0; flt infinity |];
    ]
  in
  Alcotest.(check bool) "good applied" true (Driver.submit d good = Driver.Applied);
  List.iter
    (fun u ->
      match Driver.submit d u with
      | Driver.Quarantined _ -> ()
      | Driver.Applied -> Alcotest.fail "malformed update applied")
    bad;
  Alcotest.(check int) "only the good one committed" 1 (Driver.seq d);
  Alcotest.(check int) "dead letters" (List.length bad) (List.length (Driver.quarantined d));
  Alcotest.(check int) "resilience.quarantined" (List.length bad)
    (Obs.counter_value_by_name "resilience.quarantined");
  (* quarantined updates were never logged: a restart replays only the good *)
  Driver.close d;
  let d = Driver.create cfg (make M.F_ivm) in
  Alcotest.(check int) "restart sees seq 1" 1 (Driver.seq d);
  Obs.reset ()

(* ---- transient faults: retries, then bit-identical completion ---- *)

let test_transient_retries () =
  Obs.reset ();
  Obs.with_enabled true @@ fun () ->
  Scenario.with_temp_dir @@ fun dir ->
  let updates = stream ~seed:21 ~steps:80 in
  let reference = clean_covariance M.F_ivm updates in
  let faults = Faults.parse ~seed:21 "transient:0.3" in
  let cfg = Driver.config ~faults dir in
  let d = Driver.create cfg (make M.F_ivm) in
  Driver.submit_batch d updates;
  Alcotest.(check int) "all committed" 80 (Driver.seq d);
  Alcotest.(check bool) "retries happened" true
    (Obs.counter_value_by_name "resilience.retries" > 0);
  Alcotest.(check bool) "result unaffected by retries" true
    (Cov.equal_bits reference (Driver.covariance d));
  Obs.reset ()

(* ---- audit + graceful degradation ---- *)

let test_audit_rebuilds_corrupted_state () =
  Obs.reset ();
  Obs.with_enabled true @@ fun () ->
  Scenario.with_temp_dir @@ fun dir ->
  let updates = stream ~seed:31 ~steps:60 in
  let faults = Faults.parse ~seed:31 "corrupt-state:25" in
  let cfg = Driver.config ~audit_every:10 ~audit_eps:1e-6 ~faults dir in
  let d = Driver.create cfg (make M.F_ivm) in
  Driver.submit_batch d updates;
  Alcotest.(check int) "all committed" 60 (Driver.seq d);
  Alcotest.(check bool) "audits ran" true
    (Obs.counter_value_by_name "resilience.audits" > 0);
  Alcotest.(check int) "the corruption was caught once" 1
    (Obs.counter_value_by_name "resilience.audit_failures");
  Alcotest.(check int) "and repaired by one rebuild" 1
    (Obs.counter_value_by_name "resilience.rebuilds");
  (* after degradation the answer is correct again (rebuild re-derives the
     views, so bit-identity to the clean run is NOT promised — correctness
     within tolerance is) *)
  let reference = clean_covariance M.F_ivm updates in
  Alcotest.(check bool) "answers correct after rebuild" true
    (Cov.equal_rel ~eps:1e-9 reference (Driver.covariance d));
  Alcotest.(check bool) "audit now passes" true (Driver.audit_now d);
  Obs.reset ()

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "resilience"
    [
      ( "codec",
        [
          Alcotest.test_case "primitive round-trips" `Quick test_codec_roundtrip;
          Alcotest.test_case "frames reject damage" `Quick test_frame_rejects_damage;
          qcheck cov_codec_roundtrip;
          Alcotest.test_case "triple decode checks before allocating" `Quick
            test_cov_decode_checks_before_allocating;
        ] );
      ( "wal",
        [
          Alcotest.test_case "round-trip and torn tail" `Quick test_wal_roundtrip_and_torn_tail;
          Alcotest.test_case "records framed as by Codec.frame" `Quick
            test_wal_bytes_match_buffer_framing;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip, bit-identical" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "corruption falls back" `Quick
            test_checkpoint_corruption_falls_back;
          Alcotest.test_case "state pinned on a real-valued stream" `Quick
            test_state_pinned;
          Alcotest.test_case "version 1 and tag 1 refused, fall back" `Quick
            test_checkpoint_refuses_patched;
          Alcotest.test_case "shape mismatch skipped" `Quick
            test_checkpoint_shape_mismatch_skipped;
          Alcotest.test_case "feature order mismatch refused" `Quick
            test_checkpoint_feature_order_refused;
          Alcotest.test_case "swapped features of one relation refused" `Quick
            test_checkpoint_swapped_features_refused;
          Alcotest.test_case "another strategy's checkpoint is a misfit" `Quick
            test_checkpoint_other_strategy_misfit;
        ] );
      ( "crash-recovery",
        [
          qcheck (crash_recovery_bit_identical M.F_ivm);
          qcheck (crash_recovery_bit_identical M.Higher_order);
          qcheck (crash_recovery_bit_identical M.First_order);
          Alcotest.test_case "clean restart is bit-identical" `Quick
            test_clean_restart_bit_identical;
          Alcotest.test_case "recovery counters" `Quick test_recovery_counters;
          Alcotest.test_case "misfits are not corruption" `Quick test_recovery_counts_misfits;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "quarantine dead-letters malformed updates" `Quick
            test_quarantine;
          Alcotest.test_case "transient faults retry to completion" `Quick
            test_transient_retries;
          Alcotest.test_case "audit catches corruption and rebuilds" `Quick
            test_audit_rebuilds_corrupted_state;
        ] );
    ]
