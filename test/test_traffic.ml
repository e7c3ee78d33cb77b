(* Tests for the overload-hardened serving frontier (Serve.Admission +
   lib/traffic).

   The headline property is the shed-path differential: a degraded answer
   tagged [Stale e] must be BIT-identical to the answer the server actually
   served fresh at epoch [e] — overload may cost freshness, never
   correctness. As in test_serve.ml, bit equality across pipelines is only
   sound under exact float arithmetic, so all streams draw from the dyadic
   lattice (positive multiples of 1/16). *)

open Relational
module M = Fivm.Maintainer
module Delta = Fivm.Delta
module Batch = Aggregates.Batch
module Spec = Aggregates.Spec
module A = Serve.Admission
module Sg = Datagen.Stream_gen

let int n = Value.Int n
let flt x = Value.Float x
let features = Sg.star_features

let strategies =
  [ (M.F_ivm, "fivm"); (M.Higher_order, "higher"); (M.First_order, "first") ]

(* insert-only lattice streams *)
let lattice_stream ~seed ~steps = Sg.star_stream ~deletes:false ~seed steps
let lattice_updates () = Sg.star_updates (Sg.star_gen ~deletes:false ())

(* covariance, mutual information, grouped *)
let catalog = Array.of_list Sg.star_batches
let cov_batch = catalog.(0)
let mi_batch = catalog.(1)

let same_bits a b = Spec.keyed_bits_equal (Spec.sort_keyed a) (Spec.sort_keyed b)

let fresh_eval srv batch =
  (Lmfao.Engine.eval ~on_cyclic:`Materialize (Serve.snapshot srv) batch)
    .Lmfao.Engine.keyed

(* ---- satellite 4: the shed-path differential, Admission-level ----

   For every maintenance strategy: serve a batch fresh (seeding the shadow
   cache), record the answer and its epoch, move the world on with more
   deltas, then force the admission layer to shed (zero refill rate, drained
   burst). The degraded answer must carry the OLD epoch tag and be bitwise
   the answer that epoch served — even though the server's current answer
   has moved on. *)
let stale_differential =
  QCheck2.Test.make ~count:8
    ~name:"Stale e answers are bitwise the answer epoch e served (all strategies)"
    QCheck2.Gen.(pair int (int_range 20 50))
    (fun (seed, steps) ->
      List.for_all
        (fun (strategy, sname) ->
          let srv = Serve.create strategy (Sg.star_database ()) ~features in
          Serve.apply_deltas srv (lattice_stream ~seed ~steps);
          (* burst of 1 token, no refill: the second request MUST shed *)
          let cfg =
            A.config ~tenant_rate:0.0 ~tenant_burst:1.0 ~gate_delay:1.0
              ~deadline:10.0 ()
          in
          let adm = A.create cfg srv in
          Array.iteri
            (fun i batch ->
              let tenant = Printf.sprintf "%s-%d" sname i in
              let o =
                A.request adm ~tenant ~batch ~arrival:0.0 ~lane_free:0.0
              in
              let e0, r0 =
                match (o.A.status, o.A.result) with
                | A.Fresh e, Some r -> (e, r)
                | _ ->
                    QCheck2.Test.fail_reportf
                      "%s: first request for %s not served fresh" sname
                      batch.Batch.name
              in
              if not (same_bits r0 (fresh_eval srv batch)) then
                QCheck2.Test.fail_reportf
                  "%s: fresh answer for %s diverges from recompute" sname
                  batch.Batch.name;
              (* the world moves on: the shadow entry's epoch is now stale *)
              Serve.apply_deltas srv
                (lattice_stream ~seed:(seed + i + 1) ~steps:10);
              let o2 =
                A.request adm ~tenant ~batch ~arrival:1.0 ~lane_free:1.0
              in
              match (o2.A.status, o2.A.result) with
              | A.Stale e, Some r ->
                  if e <> e0 then
                    QCheck2.Test.fail_reportf
                      "%s: stale tag %d, expected the seeding epoch %d" sname
                      e e0;
                  if not (same_bits r r0) then
                    QCheck2.Test.fail_reportf
                      "%s: WRONG BIT — stale answer for %s is not epoch %d's \
                       answer"
                      sname batch.Batch.name e0;
                  if o2.A.used_lane then
                    QCheck2.Test.fail_reportf
                      "%s: shed answer consumed lane time" sname
              | s, _ ->
                  QCheck2.Test.fail_reportf
                    "%s: over-quota request for %s not shed (%s)" sname
                    batch.Batch.name
                    (match s with
                    | A.Fresh _ -> "fresh"
                    | A.Stale _ -> "stale without result"
                    | A.Timeout -> "timeout"))
            catalog;
          true)
        strategies)

(* ---- end-to-end: the driver's audit under overload and faults ----

   Open-loop Zipf traffic at a rate guaranteed to overload the virtual
   lanes, transient faults injected into every admitted serve, checked in
   Exact mode: the driver recomputes a reference for every answered epoch
   and fails on any bit divergence. All three outcome classes and the
   accounting identity must hold. *)
let driver_audit =
  QCheck2.Test.make ~count:4
    ~name:"driver audit: zero wrong bits under overload + transient faults"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let srv = Serve.create M.F_ivm (Sg.star_database ()) ~features in
      Serve.apply_deltas srv (lattice_stream ~seed ~steps:40);
      let spec =
        Traffic.Workload.spec ~seed ~duration:1.0 ~read_rate:400.0
          ~delta_rate:4.0 ~delta_batch:6 ~tenants:3 ()
      in
      let events =
        (* warm reads seed the shadow cache before the storm *)
        List.init (Array.length catalog) (fun i ->
            Traffic.Workload.Read
              { at = 0.001 *. float_of_int (i + 1); tenant = 0; batch = i })
        @ List.map
            (function
              | Traffic.Workload.Read r ->
                  Traffic.Workload.Read { r with at = r.at +. 0.01 }
              | Traffic.Workload.Delta d ->
                  Traffic.Workload.Delta { d with at = d.at +. 0.01 })
            (Traffic.Workload.generate spec
               ~catalog:(Array.length catalog)
               ~make_updates:(lattice_updates ()))
      in
      let cfg =
        A.config ~tenant_rate:30.0 ~tenant_burst:5.0
          ~gate_delay:1e-4 (* virtually everything over one slow lane sheds *)
          ~deadline:1.0 ~max_retries:8 ~backoff_base:1e-6 ~backoff_cap:1e-4
          ~faults:(Resilience.Faults.parse ~seed "transient:0.3")
          ~seed ()
      in
      let adm = A.create cfg srv in
      let r =
        Traffic.Driver.run ~lanes:1 ~flush_interval:0.2
          ~check:true adm ~catalog ~events
      in
      if r.Traffic.Driver.error_count > 0 then
        QCheck2.Test.fail_reportf "audit failures:\n%s"
          (String.concat "\n" r.Traffic.Driver.errors);
      if
        r.Traffic.Driver.admitted + r.Traffic.Driver.shed
        + r.Traffic.Driver.timeout
        <> r.Traffic.Driver.offered
      then
        QCheck2.Test.fail_reportf "accounting: %d + %d + %d <> %d"
          r.Traffic.Driver.admitted r.Traffic.Driver.shed
          r.Traffic.Driver.timeout r.Traffic.Driver.offered;
      if r.Traffic.Driver.checked = 0 then
        QCheck2.Test.fail_reportf "audit checked nothing";
      if r.Traffic.Driver.admitted = 0 || r.Traffic.Driver.shed = 0 then
        QCheck2.Test.fail_reportf
          "expected both fresh and shed traffic (admitted %d, shed %d)"
          r.Traffic.Driver.admitted r.Traffic.Driver.shed;
      true)

(* ---- workload generation: determinism, order, ranges ---- *)
let workload_deterministic =
  QCheck2.Test.make ~count:30 ~name:"workload: deterministic per seed, sorted"
    QCheck2.Gen.(triple int (int_range 1 5) (int_range 1 4))
    (fun (seed, catalog_n, tenants) ->
      let mk () =
        Traffic.Workload.generate
          (Traffic.Workload.spec ~seed ~duration:0.5 ~read_rate:200.0
             ~delta_rate:20.0 ~delta_batch:3 ~tenants ())
          ~catalog:catalog_n
          ~make_updates:(lattice_updates ())
      in
      let a = mk () and b = mk () in
      if a <> b then QCheck2.Test.fail_reportf "same seed, different events";
      let rec sorted = function
        | x :: (y :: _ as rest) ->
            Traffic.Workload.at x <= Traffic.Workload.at y && sorted rest
        | _ -> true
      in
      if not (sorted a) then QCheck2.Test.fail_reportf "events out of order";
      List.iter
        (function
          | Traffic.Workload.Read { at; tenant; batch } ->
              if at < 0.0 || at >= 0.5 then
                QCheck2.Test.fail_reportf "read outside window";
              if tenant < 0 || tenant >= tenants then
                QCheck2.Test.fail_reportf "tenant %d out of range" tenant;
              if batch < 0 || batch >= catalog_n then
                QCheck2.Test.fail_reportf "batch %d out of range" batch
          | Traffic.Workload.Delta { updates; _ } ->
              if List.length updates <> 3 then
                QCheck2.Test.fail_reportf "delta batch size")
        a;
      true)

(* ---- coalescing: equivalence and elimination accounting ---- *)
let test_coalescing () =
  let t1 = [| int 1; flt 0.5 |] and t2 = [| int 2; flt 0.25 |] in
  let srv = Serve.create M.F_ivm (Sg.star_database ()) ~features in
  Serve.apply_deltas srv (lattice_stream ~seed:3 ~steps:30);
  let adm = A.create (A.config ()) srv in
  (* t1 inserted twice (merges to one update of multiplicity 2), t2
     inserted then deleted (cancels to nothing): 4 updates -> 1 *)
  (match
     A.submit_delta adm
       [ Delta.insert "D1" t1; Delta.insert "D1" t1; Delta.insert "D1" t2 ]
   with
  | `Queued -> ()
  | `Backpressure -> Alcotest.fail "queue full");
  (match A.submit_delta adm [ Delta.delete "D1" t2 ] with
  | `Queued -> ()
  | `Backpressure -> Alcotest.fail "queue full");
  Alcotest.(check int) "pending before flush" 4 (A.pending_updates adm);
  let eliminated = A.flush adm in
  Alcotest.(check int) "three of four updates eliminated" 3 eliminated;
  Alcotest.(check int) "queue drained" 0 (A.pending_updates adm);
  (* equivalence: a server given the pre-coalesced net directly *)
  let srv2 = Serve.create M.F_ivm (Sg.star_database ()) ~features in
  Serve.apply_deltas srv2 (lattice_stream ~seed:3 ~steps:30);
  Serve.apply_deltas srv2 [ Delta.insert "D1" t1; Delta.insert "D1" t1 ];
  Array.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: coalesced == raw net" b.Batch.name)
        true
        (same_bits (Serve.serve srv b) (Serve.serve srv2 b)))
    catalog;
  (* an empty-net flush must not bump the epoch *)
  (match A.submit_delta adm [ Delta.insert "D2" t1; Delta.delete "D2" t1 ] with
  | `Queued -> ()
  | `Backpressure -> Alcotest.fail "queue full");
  let e = Serve.epoch srv in
  Alcotest.(check int) "cancelling pair fully eliminated" 2 (A.flush adm);
  Alcotest.(check int) "no-op flush leaves the epoch alone" e (Serve.epoch srv)

(* ---- token buckets and backpressure ---- *)
let test_token_bucket_and_backpressure () =
  let srv = Serve.create M.F_ivm (Sg.star_database ()) ~features in
  Serve.apply_deltas srv (lattice_stream ~seed:5 ~steps:30);
  let cfg =
    A.config ~tenant_rate:2.0 ~tenant_burst:2.0 ~gate_delay:1.0 ~deadline:10.0
      ~max_pending:4 ()
  in
  let adm = A.create cfg srv in
  let status t arrival =
    (A.request adm ~tenant:t ~batch:cov_batch ~arrival ~lane_free:arrival)
      .A.status
  in
  let is_fresh = function A.Fresh _ -> true | _ -> false in
  (* two tokens: third same-instant request is denied; with an empty shadow
     it cannot even degrade, so it times out *)
  Alcotest.(check bool) "1st admitted" true (is_fresh (status "a" 0.0));
  Alcotest.(check bool) "2nd admitted" true (is_fresh (status "a" 0.0));
  (match status "a" 0.0 with
  | A.Stale _ ->
      () (* the first two answers seeded the shadow for this batch *)
  | s ->
      Alcotest.failf "3rd request should shed, got %s"
        (match s with A.Fresh _ -> "fresh" | _ -> "timeout"));
  (* an independent tenant has its own bucket *)
  Alcotest.(check bool) "other tenant admitted" true (is_fresh (status "b" 0.0));
  (* refill: 2 tokens/s -> one second later one token is back *)
  Alcotest.(check bool) "refilled after 1s" true (is_fresh (status "a" 1.0));
  (* backpressure: the queue caps at 4 pending updates *)
  let u () = [ Delta.insert "D1" [| int 0; flt 0.0625 |] ] in
  for i = 1 to 4 do
    match A.submit_delta adm (u ()) with
    | `Queued -> ()
    | `Backpressure -> Alcotest.failf "premature backpressure at %d" i
  done;
  (match A.submit_delta adm (u ()) with
  | `Backpressure -> ()
  | `Queued -> Alcotest.fail "expected backpressure on a full queue");
  ignore (A.flush adm);
  match A.submit_delta adm (u ()) with
  | `Queued -> ()
  | `Backpressure -> Alcotest.fail "flush should free the queue"

(* ---- retries: transient faults are retried with backoff, terminal
   exhaustion is a Timeout, and a recovered answer is still bit-exact ---- *)
let test_retries_under_faults () =
  let srv = Serve.create M.F_ivm (Sg.star_database ()) ~features in
  Serve.apply_deltas srv (lattice_stream ~seed:9 ~steps:30);
  let mk faults max_retries =
    A.create
      (A.config ~tenant_rate:100.0 ~tenant_burst:20.0 ~gate_delay:1.0
         ~deadline:10.0 ~max_retries ~backoff_base:1e-6 ~backoff_cap:1e-5
         ~faults ())
      srv
  in
  (* p=0.5 with a generous budget: over 20 requests some retries must fire,
     every answer fresh and bit-exact *)
  let adm = mk (Resilience.Faults.parse ~seed:1 "transient:0.5") 20 in
  let retries = ref 0 in
  for i = 0 to 19 do
    let o =
      A.request adm ~tenant:"t" ~batch:cov_batch
        ~arrival:(float_of_int i /. 100.0)
        ~lane_free:(float_of_int i /. 100.0)
    in
    retries := !retries + o.A.retries;
    match (o.A.status, o.A.result) with
    | A.Fresh _, Some r ->
        Alcotest.(check bool)
          (Printf.sprintf "request %d bit-exact after retries" i)
          true
          (same_bits r (fresh_eval srv cov_batch))
    | _ -> Alcotest.failf "request %d not served fresh" i
  done;
  Alcotest.(check bool) "some retries happened" true (!retries > 0);
  (* certain failure with no retry budget: Timeout, no result, no stale
     masquerading as fresh *)
  let adm = mk (Resilience.Faults.parse ~seed:2 "transient:1.0") 2 in
  let o = A.request adm ~tenant:"t" ~batch:mi_batch ~arrival:0.0 ~lane_free:0.0 in
  (match (o.A.status, o.A.result) with
  | A.Timeout, None -> ()
  | _ -> Alcotest.fail "exhausted retries must yield Timeout with no result");
  Alcotest.(check int) "all retries consumed" 2 o.A.retries

(* ---- report quantiles vs the Obs histogram ---- *)
let test_report_histogram_consistency () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let srv = Serve.create M.F_ivm (Sg.star_database ()) ~features in
  Serve.apply_deltas srv (lattice_stream ~seed:13 ~steps:30);
  let adm =
    A.create
      (A.config ~tenant_rate:50.0 ~tenant_burst:10.0 ~gate_delay:1e-4
         ~deadline:1.0 ())
      srv
  in
  let events =
    List.init 60 (fun i ->
        Traffic.Workload.Read
          { at = float_of_int i /. 100.0; tenant = i mod 2; batch = i mod 3 })
  in
  let r = Traffic.Driver.run ~lanes:1 adm ~catalog ~events in
  Alcotest.(check int) "offered all reads" 60 r.Traffic.Driver.offered;
  (match Obs.histogram_snapshot_by_name "serve.latency" with
  | None -> Alcotest.fail "serve.latency histogram missing"
  | Some s ->
      Alcotest.(check int)
        "histogram count == offered" 60 s.Obs.hs_count;
      (* the histogram's p99 estimate must land between the exact p95 and
         the exact max, each widened by one log bucket (10^(1/5)): at small
         counts the two quantile definitions may disagree by a rank, which
         is at most a bucket or two of value *)
      let hp99 = Obs.snapshot_quantile s 0.99 in
      let w = 10.0 ** 0.2 in
      if r.Traffic.Driver.p95 > 0.0 && Float.is_finite hp99 then
        Alcotest.(check bool)
          (Printf.sprintf "histogram p99 %g within [p95/w, max*w] = [%g, %g]"
             hp99
             (r.Traffic.Driver.p95 /. w)
             (r.Traffic.Driver.max_latency *. w))
          true
          (hp99 >= r.Traffic.Driver.p95 /. w
          && hp99 <= r.Traffic.Driver.max_latency *. w));
  let counters = Obs.counter_snapshot () in
  let c name =
    match List.assoc_opt name counters with Some v -> v | None -> 0
  in
  Alcotest.(check int) "counter partition balances" (c "serve.offered")
    (c "serve.admitted" + c "serve.shed" + c "serve.timeout");
  Alcotest.(check int) "counters match the report" r.Traffic.Driver.admitted
    (c "serve.admitted")

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "traffic"
    [
      ( "differential",
        [ qcheck stale_differential; qcheck driver_audit ] );
      ("workload", [ qcheck workload_deterministic ]);
      ( "admission",
        [
          Alcotest.test_case "coalescing equivalence" `Quick test_coalescing;
          Alcotest.test_case "token buckets and backpressure" `Quick
            test_token_bucket_and_backpressure;
          Alcotest.test_case "retries under transient faults" `Quick
            test_retries_under_faults;
          Alcotest.test_case "report vs histogram" `Quick
            test_report_histogram_consistency;
        ] );
    ]
