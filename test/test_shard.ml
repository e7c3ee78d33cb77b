(* Differential/determinism harness for sharded maintenance (Fivm.Shard +
   Resilience.Sharded).

   The headline property is SHARD-COUNT INVARIANCE: the merged covariance of
   an N-shard pipeline equals the unsharded maintainer's, bit for bit, for
   every N. Bitwise equality across different SUMMATION ORDERS only holds
   when the float arithmetic is exact, so the differential streams draw
   feature values from a dyadic lattice (strictly positive multiples of
   1/16, at most 4): every product and sum in the covariance pipeline is
   then exactly representable (numerators stay far below 2^53), and any
   association of the additions yields identical bits. For arbitrary floats
   the guarantee is weaker — deterministic for a fixed shard count, equal
   to the unsharded run up to summation order — and is tested as such. *)

open Relational
module Cov = Rings.Covariance
module M = Fivm.Maintainer
module Delta = Fivm.Delta
module Shard = Fivm.Shard
module Faults = Resilience.Faults
module Sharded = Resilience.Sharded
module Sg = Datagen.Stream_gen

(* The star workload: the partition attribute resolves to "a" (in F and
   D1); D2 is broadcast. *)
let features = Sg.star_features
let strategies = [ M.F_ivm; M.Higher_order; M.First_order ]
let make strategy () = M.create strategy (Sg.star_database ()) ~features

(* Exact-arithmetic stream: features are strictly positive multiples of
   1/16 (never -0.0, never rounding), so every covariance accumulation is
   exact and summation order cannot change a single bit. *)
let lattice_stream ~seed ~steps = Sg.star_stream ~seed steps

(* Arbitrary-float stream: order-sensitive accumulations. *)
let float_stream ~seed ~steps = Sg.star_stream ~draw:Sg.Uniform ~seed steps

let clean_covariance strategy updates =
  let m = make strategy () in
  List.iter (M.apply m) updates;
  M.covariance m

let shard_counts = [ 1; 2; 3; 8 ]
let qcheck = QCheck_alcotest.to_alcotest

(* ---- the headline differential: shard-count invariance, bit for bit ---- *)

let sharded_bit_identical strategy =
  QCheck2.Test.make ~count:8
    ~name:
      (Printf.sprintf "%s: N-shard run is bit-identical to unsharded and recompute"
         (M.strategy_name strategy))
    QCheck2.Gen.int
    (fun seed ->
      let updates = lattice_stream ~seed ~steps:500 in
      let reference = clean_covariance strategy updates in
      List.for_all
        (fun shards ->
          let sh = Shard.create strategy (Sg.star_database ()) ~features ~shards in
          Shard.apply_batch sh updates;
          Cov.equal_bits reference (Shard.covariance sh)
          && Cov.equal_bits reference (Shard.recompute sh))
        shard_counts)

(* Single-update routing path (Shard.apply) agrees with the batch path. *)
let test_apply_matches_apply_batch () =
  let updates = lattice_stream ~seed:97 ~steps:300 in
  List.iter
    (fun strategy ->
      let one = Shard.create strategy (Sg.star_database ()) ~features ~shards:3 in
      List.iter (Shard.apply one) updates;
      let batch = Shard.create strategy (Sg.star_database ()) ~features ~shards:3 in
      Shard.apply_batch batch updates;
      Alcotest.(check bool)
        (M.strategy_name strategy ^ ": apply = apply_batch")
        true
        (Cov.equal_bits (Shard.covariance one) (Shard.covariance batch)))
    strategies

(* The result may not depend on how many domains applied the shards. *)
let test_domain_count_invariance () =
  let updates = lattice_stream ~seed:3 ~steps:400 in
  let reference =
    let sh = Shard.create M.F_ivm (Sg.star_database ()) ~features ~shards:4 in
    Shard.apply_batch ~domains:1 sh updates;
    Shard.covariance sh
  in
  List.iter
    (fun domains ->
      let sh = Shard.create M.F_ivm (Sg.star_database ()) ~features ~shards:4 in
      Shard.apply_batch ~domains sh updates;
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d bit-identical to domains=1" domains)
        true
        (Cov.equal_bits reference (Shard.covariance sh)))
    [ 2; 4; 8 ]

(* ---- fault injection: per-shard crash recovery stays invariant ---- *)

let sharded_crash_recovery strategy =
  QCheck2.Test.make ~count:6
    ~name:
      (Printf.sprintf "%s: sharded crash-after:K recovery is bit-identical"
         (M.strategy_name strategy))
    QCheck2.Gen.(pair int (int_range 1 120))
    (fun (seed, crash_at) ->
      let updates = lattice_stream ~seed ~steps:500 in
      let reference = clean_covariance strategy updates in
      List.for_all
        (fun shards ->
          Scenario.with_temp_dir @@ fun dir ->
          let plan = Shard.plan ~shards (Sg.star_database ()) in
          let spec = Printf.sprintf "crash-after:%d,torn-tail:4" crash_at in
          let sh =
            Sharded.create ~checkpoint_every:16
              ~faults:(fun k -> Faults.parse ~seed:(seed + k) spec)
              ~dir ~plan (make strategy)
          in
          Sharded.submit_batch sh updates;
          let queues = Shard.partition plan updates in
          let expected = Array.map List.length queues in
          (* a crash fires in every shard whose queue reaches crash_at *)
          let expected_crashes =
            Array.fold_left
              (fun acc len -> if len >= crash_at then acc + 1 else acc)
              0 expected
          in
          Sharded.crashes sh = expected_crashes
          && Sharded.seqs sh = expected
          && Cov.equal_bits reference (Sharded.covariance sh))
        shard_counts)

(* Clean stop/restart: per-shard recovery reads only that shard's state. *)
let test_sharded_restart () =
  Scenario.with_temp_dir @@ fun dir ->
  let updates = lattice_stream ~seed:8 ~steps:400 in
  let reference = clean_covariance M.F_ivm updates in
  let plan = Shard.plan ~shards:4 (Sg.star_database ()) in
  let half = List.filteri (fun i _ -> i < 200) updates in
  let rest = List.filteri (fun i _ -> i >= 200) updates in
  let sh = Sharded.create ~checkpoint_every:32 ~dir ~plan (make M.F_ivm) in
  Sharded.submit_batch sh half;
  let seqs_before = Sharded.seqs sh in
  Sharded.close sh;
  let sh = Sharded.create ~checkpoint_every:32 ~dir ~plan (make M.F_ivm) in
  Alcotest.(check bool) "each shard resumed at its own seq" true
    (Sharded.seqs sh = seqs_before);
  Sharded.submit_batch sh rest;
  let expected =
    Array.fold_left
      (fun acc q -> acc + List.length q)
      0
      (Shard.partition plan updates)
  in
  Alcotest.(check int) "all committed (with broadcast replication)" expected
    (Array.fold_left ( + ) 0 (Sharded.seqs sh));
  Alcotest.(check bool) "restarted sharded run is bit-identical" true
    (Cov.equal_bits reference (Sharded.covariance sh))

(* ---- routing ---- *)

let test_plan_and_partition () =
  let db = Sg.star_database () in
  let plan = Shard.plan ~shards:4 db in
  Alcotest.(check string) "partition attribute" "a" (Shard.plan_attr plan);
  Alcotest.(check int) "shards" 4 (Shard.plan_shards plan);
  let updates = lattice_stream ~seed:5 ~steps:200 in
  let queues = Shard.partition plan updates in
  (* keyed updates land in exactly one queue; broadcasts in all *)
  let keyed, broadcast =
    List.fold_left
      (fun (k, b) (u : Delta.update) ->
        if u.relation = "D2" then (k, b + 1) else (k + 1, b))
      (0, 0) updates
  in
  let total = Array.fold_left (fun acc q -> acc + List.length q) 0 queues in
  Alcotest.(check int) "replication factor" (keyed + (4 * broadcast)) total;
  (* same-key F/D1 updates route to the same shard *)
  List.iter
    (fun (u : Delta.update) ->
      match Shard.route_update plan u with
      | Some k ->
          let k' =
            Keypack.shard_of_key ~shards:4
              (Keypack.key_of_tuple [| 0 |] u.tuple)
          in
          Alcotest.(check int) "route = hash of key field" k' k
      | None -> Alcotest.(check string) "only D2 broadcasts" "D2" u.relation)
    updates;
  (* per-shard queues preserve stream order *)
  Array.iter
    (fun q ->
      let positions =
        List.map
          (fun (u : Delta.update) ->
            let rec index i = function
              | [] -> -1
              | x :: rest -> if x == u then i else index (i + 1) rest
            in
            index 0 updates)
          q
      in
      Alcotest.(check bool) "queue preserves stream order" true
        (List.sort compare positions = positions))
    queues

(* ---- arbitrary floats: determinism for a fixed N, accuracy vs unsharded ---- *)

let test_arbitrary_floats_deterministic () =
  let updates = float_stream ~seed:1234 ~steps:500 in
  let run () =
    let sh = Shard.create M.F_ivm (Sg.star_database ()) ~features ~shards:3 in
    Shard.apply_batch sh updates;
    Shard.covariance sh
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "two identical runs agree bit-for-bit" true
    (Cov.equal_bits a b);
  let reference = clean_covariance M.F_ivm updates in
  Alcotest.(check bool) "agrees with unsharded up to summation order" true
    (Cov.equal_rel ~eps:1e-9 reference a)

(* ---- observability ---- *)

let test_shard_counters () =
  Obs.reset ();
  Obs.with_enabled true @@ fun () ->
  let updates = lattice_stream ~seed:77 ~steps:200 in
  let sh = Shard.create M.F_ivm (Sg.star_database ()) ~features ~shards:2 in
  Shard.apply_batch sh updates;
  ignore (Shard.covariance sh);
  Alcotest.(check bool) "fivm.shard.routed > 0" true
    (Obs.counter_value_by_name "fivm.shard.routed" > 0);
  Alcotest.(check bool) "fivm.shard.broadcast > 0" true
    (Obs.counter_value_by_name "fivm.shard.broadcast" > 0);
  Alcotest.(check int) "fivm.shard.batches" 1
    (Obs.counter_value_by_name "fivm.shard.batches");
  Alcotest.(check bool) "per-shard delta counters cover the batch" true
    (Obs.counter_value_by_name "fivm.shard.0.deltas"
     + Obs.counter_value_by_name "fivm.shard.1.deltas"
    > 0);
  Alcotest.(check bool) "skew gauge set" true
    (Obs.gauge_value (Obs.gauge "fivm.shard.skew") > 0.0);
  Obs.reset ()

let () =
  Alcotest.run "shard"
    [
      ( "differential",
        List.map (fun s -> qcheck (sharded_bit_identical s)) strategies
        @ [
            Alcotest.test_case "apply matches apply_batch" `Quick
              test_apply_matches_apply_batch;
            Alcotest.test_case "domain-count invariance" `Quick
              test_domain_count_invariance;
            Alcotest.test_case "arbitrary floats: deterministic for fixed N" `Quick
              test_arbitrary_floats_deterministic;
          ] );
      ( "crash-recovery",
        List.map (fun s -> qcheck (sharded_crash_recovery s)) strategies
        @ [ Alcotest.test_case "clean restart per shard" `Quick test_sharded_restart ] );
      ( "routing",
        [ Alcotest.test_case "plan and partition" `Quick test_plan_and_partition ] );
      ( "observability",
        [ Alcotest.test_case "shard counters and gauges" `Quick test_shard_counters ] );
    ]
