(* The hostile-stream scenario matrix as a test suite: every dataset x shape
   cell through every layer (maintenance x3 strategies, shards {1,4,8},
   crash recovery, serving, models, streamed engines), each differential
   demanding BIT-identity — plus targeted regressions for the two defects
   the matrix was built to catch: zero-multiplicity group retention in the
   view trees, and lost updates on reordered/duplicated WAL tails. *)

open Relational
module M = Fivm.Maintainer
module Sg = Datagen.Stream_gen

let datasets =
  [
    ("retailer", Datagen.Retailer.generate, Datagen.Retailer.ivm_features);
    ("favorita", Datagen.Favorita.generate, Datagen.Favorita.ivm_features);
    ("yelp", Datagen.Yelp.generate, Datagen.Yelp.ivm_features);
    ("tpcds", Datagen.Tpcds.generate, Datagen.Tpcds.ivm_features);
  ]

(* ------------------------------------------------------- the full matrix *)

let test_cell (generate : ?scale:float -> seed:int -> unit -> Database.t) features
    dataset shape () =
  let db = generate ~scale:0.01 ~seed:42 () in
  let cell = Scenario.run_cell ~seed:42 ~dataset ~shape ~features db in
  Alcotest.(check bool) "stream non-empty" true (cell.Scenario.updates > 0);
  List.iter
    (fun (c : Scenario.check) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s x %s [%s] %s" dataset cell.Scenario.shape c.layer c.detail)
        true c.ok)
    cell.Scenario.checks;
  (* every layer ran *)
  List.iter
    (fun layer ->
      Alcotest.(check bool) (layer ^ " ran") true
        (List.exists (fun (c : Scenario.check) -> c.layer = layer) cell.Scenario.checks))
    Scenario.layers

let matrix_suite (name, generate, features) =
  ( "matrix-" ^ name,
    List.map
      (fun (shape_name, shape) ->
        Alcotest.test_case shape_name `Slow (test_cell generate features name shape))
      Sg.shapes )

(* ------------------------------------- zero-multiplicity group retention *)

(* Full churn: every fact tuple deleted and re-inserted. Entries pass
   through zero and come back; none may be LEFT at zero, and the final
   triple must still match a from-scratch recompute bit for bit. *)
let test_full_churn_no_residue () =
  let db = Sg.lattice_database (Datagen.Retailer.generate ~scale:0.01 ~seed:5 ()) in
  let stream = Sg.with_churn ~seed:5 ~churn:1.0 db in
  let m = M.create M.F_ivm db ~features:Datagen.Retailer.ivm_features in
  List.iter (M.apply m) stream;
  Alcotest.(check int) "no zero-payload view entries" 0 (Scenario.zero_residue_rows m);
  Alcotest.(check bool) "maintained == recompute (bits)" true
    (Rings.Covariance.equal_bits (M.recompute m) (M.covariance m))

(* Deletion for good: load everything, then delete every fact tuple and
   never re-insert. The cancelled fact groups must VANISH from the view
   trees (this is the retention defect: they used to linger as zero-payload
   rows), and the survivors must equal a recompute. *)
let test_net_zero_groups_vanish () =
  let db = Sg.lattice_database (Datagen.Retailer.generate ~scale:0.01 ~seed:6 ()) in
  let base = Sg.inserts_of_database ~seed:6 db in
  let fact = Relation.name (Sg.fact_relation db) in
  let m = M.create M.F_ivm db ~features:Datagen.Retailer.ivm_features in
  List.iter (M.apply m) base;
  let loaded_rows = M.view_rows m in
  List.iter
    (fun (u : Fivm.Delta.update) ->
      if u.relation = fact then M.apply m (Fivm.Delta.delete u.relation u.tuple))
    base;
  Alcotest.(check int) "no zero-payload view entries" 0 (Scenario.zero_residue_rows m);
  Alcotest.(check bool)
    (Printf.sprintf "cancelled groups dropped (%d -> %d rows)" loaded_rows (M.view_rows m))
    true
    (M.view_rows m < loaded_rows);
  Alcotest.(check bool) "maintained == recompute (bits)" true
    (Rings.Covariance.equal_bits (M.recompute m) (M.covariance m))

(* ------------------------------------ reordered / duplicated WAL replay *)

(* Crash with reorder:6,dup:3 and NO torn tail: every acknowledged record
   survives on disk, just permuted and duplicated. Recovery must apply each
   exactly once in seq order — the old fold-while-increasing replay DROPPED
   the reordered lower-seq records and lost their updates. *)
let test_reorder_dup_recovery strategy () =
  let db = Sg.lattice_database (Datagen.Retailer.generate ~scale:0.01 ~seed:9 ()) in
  let features = Datagen.Retailer.ivm_features in
  let stream = Array.of_list (Sg.with_churn ~seed:9 ~churn:0.3 db) in
  let n = Array.length stream in
  let clean = M.create strategy db ~features in
  Array.iter (M.apply clean) stream;
  let want = M.covariance clean in
  Scenario.with_temp_dir @@ fun dir ->
  let faults =
    Resilience.Faults.parse ~seed:9 (Printf.sprintf "crash-after:%d,reorder:6,dup:3" (n / 2))
  in
  let cfg = Resilience.Driver.config ~checkpoint_every:50 ~faults dir in
  let make () = M.create strategy db ~features in
  let restarts = ref 0 in
  let rec drive d i =
    if i >= n then d
    else
      match Resilience.Driver.submit d stream.(i) with
      | Resilience.Driver.Applied | Resilience.Driver.Quarantined _ -> drive d (i + 1)
      | exception Resilience.Faults.Crash _ ->
          incr restarts;
          let d = Resilience.Driver.create cfg make in
          drive d (Resilience.Driver.seq d)
  in
  let d = drive (Resilience.Driver.create cfg make) 0 in
  Alcotest.(check bool) "crashed at least once" true (!restarts >= 1);
  Alcotest.(check bool) "recovered == never-crashed (bits)" true
    (Rings.Covariance.equal_bits want (Resilience.Driver.covariance d));
  Resilience.Driver.close d

(* The WAL damage helpers themselves: reorder reverses the tail frames,
   dup appends byte-identical copies, and replay returns them verbatim
   (recovery, not replay, is what restores seq order). *)
let test_wal_tail_damage () =
  Scenario.with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "wal.log" in
  let w = Resilience.Wal.open_append path in
  let update i =
    Fivm.Delta.insert "R" [| Value.Int i; Value.Float (float_of_int i /. 16.0) |]
  in
  for i = 1 to 10 do
    Resilience.Wal.append w { Resilience.Wal.seq = i; update = update i }
  done;
  Resilience.Wal.close w;
  Resilience.Wal.reorder_tail path ~frames:4;
  Resilience.Wal.dup_tail path ~frames:2;
  let rp = Resilience.Wal.replay path in
  Alcotest.(check bool) "no tear introduced" false rp.Resilience.Wal.torn;
  let seqs = List.map (fun (r : Resilience.Wal.record) -> r.seq) rp.Resilience.Wal.records in
  Alcotest.(check (list int)) "reversed tail + duplicated tail"
    [ 1; 2; 3; 4; 5; 6; 10; 9; 8; 7; 8; 7 ]
    seqs

let () =
  Alcotest.run "scenarios"
    (List.map matrix_suite datasets
    @ [
        ( "zero-multiplicity",
          [
            Alcotest.test_case "full churn leaves no residue" `Quick
              test_full_churn_no_residue;
            Alcotest.test_case "net-zero groups vanish" `Quick
              test_net_zero_groups_vanish;
          ] );
        ( "wal-tail",
          [
            Alcotest.test_case "reorder+dup recovery (f-ivm)" `Quick
              (test_reorder_dup_recovery M.F_ivm);
            Alcotest.test_case "reorder+dup recovery (higher-order)" `Quick
              (test_reorder_dup_recovery M.Higher_order);
            Alcotest.test_case "reorder/dup damage shapes" `Quick test_wal_tail_damage;
          ] );
      ])
