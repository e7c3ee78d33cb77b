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
  Alcotest.(check bool) "eof" true (C.eof rd)

let test_frame_rejects_damage () =
  let module C = Codec in
  let b = Buffer.create 32 in
  C.frame b "payload bytes";
  let s = Buffer.contents b in
  Alcotest.(check string) "roundtrip" "payload bytes" (C.read_frame (C.reader s));
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

(* ---- WAL ---- *)

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

let test_checkpoint_roundtrip () =
  Scenario.with_temp_dir @@ fun dir ->
  List.iter
    (fun strategy ->
      let m = make strategy () in
      List.iter (M.apply m) (stream ~seed:5 ~steps:60);
      ignore (Checkpoint.write ~dir ~seq:60 m);
      let restored, corrupt = Checkpoint.restore ~dir ~make:(make strategy) in
      Alcotest.(check int) "no corruption" 0 corrupt;
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
  let restored, corrupt = Checkpoint.restore ~dir ~make:(make M.F_ivm) in
  Alcotest.(check int) "one corrupt checkpoint skipped" 1 corrupt;
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
  let restored, corrupt = Checkpoint.restore ~dir ~make:(make M.F_ivm) in
  Alcotest.(check bool) "both skipped" true (corrupt >= 2);
  Alcotest.(check bool) "empty start" true (restored = None)

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
        ] );
      ( "wal",
        [ Alcotest.test_case "round-trip and torn tail" `Quick test_wal_roundtrip_and_torn_tail ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip, bit-identical" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "corruption falls back" `Quick
            test_checkpoint_corruption_falls_back;
        ] );
      ( "crash-recovery",
        [
          qcheck (crash_recovery_bit_identical M.F_ivm);
          qcheck (crash_recovery_bit_identical M.Higher_order);
          qcheck (crash_recovery_bit_identical M.First_order);
          Alcotest.test_case "clean restart is bit-identical" `Quick
            test_clean_restart_bit_identical;
          Alcotest.test_case "recovery counters" `Quick test_recovery_counters;
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
