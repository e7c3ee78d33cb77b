(* Differential tests for the epoch-invalidated serving cache (lib/serve).

   The headline property: a served result — whether it came from the cache,
   from an in-place covariance refresh after a delta batch, or from a
   recompute after invalidation — is BIT-identical to a fresh
   [Lmfao.Engine.eval] over the server's current snapshot, at every point
   of a random insert/delete stream, for all three maintenance strategies.
   Bitwise equality across the maintained and recomputed pipelines only
   holds under exact float arithmetic, so the streams are
   [Datagen.Stream_gen]'s star workload on the dyadic lattice (strictly
   positive multiples of 1/16, at most 4): every covariance accumulation is
   then exactly representable and no summation order can change a bit. *)

open Relational
module M = Fivm.Maintainer
module Delta = Fivm.Delta
module Batch = Aggregates.Batch
module Spec = Aggregates.Spec
module Sg = Datagen.Stream_gen

let int n = Value.Int n
let flt x = Value.Float x
let features = Sg.star_features
let strategies = [ (M.F_ivm, "fivm"); (M.Higher_order, "higher"); (M.First_order, "first") ]
let segment stream lo len = List.filteri (fun i _ -> i >= lo && i < lo + len) stream

(* The served batch mix: one fully covariance-backed batch (refreshed in
   place on deltas), one categorical batch and one grouped batch (both
   invalidated on deltas, recomputed on the next request). *)
let all_batches = Sg.star_batches
let cov_batch = List.hd all_batches

(* Scenario.serve_audit: the batch served twice (miss or refresh, then a
   cached hit), each answer bitwise against a fresh recompute. *)
let check_batch srv what batch =
  match Scenario.serve_audit srv batch with
  | true, true -> ()
  | first, _ ->
      QCheck2.Test.fail_reportf "%s: served %s (%s) diverges from fresh recompute" what
        batch.Batch.name
        (if first then "second serve" else "first serve")

(* The differential: random lattice stream applied in rounds; after every
   round every batch must serve bit-identically to recompute, twice (the
   second being a guaranteed cache hit), for each strategy. *)
let serving_differential =
  QCheck2.Test.make ~count:6 ~name:"served = recompute bitwise (all strategies)"
    QCheck2.Gen.(triple int (int_range 20 60) (int_range 1 3))
    (fun (seed, steps, rounds) ->
      List.for_all
        (fun (strategy, sname) ->
          let srv = Serve.create strategy (Sg.star_database ()) ~features in
          let per = steps / (rounds + 1) in
          let stream = Sg.star_stream ~seed steps in
          Serve.apply_deltas srv (segment stream 0 per);
          for round = 1 to rounds do
            List.iter
              (check_batch srv (Printf.sprintf "%s round %d" sname round))
              all_batches;
            Serve.apply_deltas srv (segment stream (round * per) per);
            (* immediately after the delta batch: the covariance batch was
               refreshed in place (no recompute), the others invalidated —
               all must still equal recompute *)
            List.iter
              (fun b ->
                check_batch srv
                  (Printf.sprintf "%s round %d post-delta" sname round)
                  b)
              all_batches
          done;
          true)
        strategies)

(* Cache-state bookkeeping on one deterministic run: misses on first touch,
   hits on repeats, refresh (not invalidation) for the covariance-backed
   batch, invalidation for the rest; epoch advances once per delta batch. *)
let test_stats_and_epoch () =
  let srv = Serve.create M.F_ivm (Sg.star_database ()) ~features in
  let stream = Sg.star_stream ~seed:11 60 in
  Serve.apply_deltas srv (segment stream 0 40);
  Alcotest.(check int) "epoch after first delta batch" 1 (Serve.epoch srv);
  List.iter (fun b -> ignore (Serve.serve srv b)) all_batches;
  List.iter (fun b -> ignore (Serve.serve srv b)) all_batches;
  let s = Serve.stats srv in
  Alcotest.(check int) "one miss per distinct batch" 3 s.Serve.misses;
  Alcotest.(check int) "repeats all hit" 3 s.Serve.hits;
  Alcotest.(check int) "three entries cached" 3 (Serve.cache_size srv);
  Serve.apply_deltas srv (segment stream 40 20);
  Alcotest.(check int) "epoch advanced" 2 (Serve.epoch srv);
  let s = Serve.stats srv in
  Alcotest.(check int) "covariance batch refreshed in place" 1 s.Serve.refreshes;
  Alcotest.(check int) "other batches invalidated" 2 s.Serve.invalidations;
  Alcotest.(check int) "invalidated entries dropped" 1 (Serve.cache_size srv);
  (* the refreshed entry serves as a HIT (both audit serves hit) and still
     equals recompute *)
  let before = (Serve.stats srv).Serve.hits in
  check_batch srv "refreshed hit" cov_batch;
  Alcotest.(check int) "refresh served without recompute" (before + 2)
    (Serve.stats srv).Serve.hits

(* A hit needs the cached batch itself, not just its fingerprint: two
   batches that differ only in their aggregate ids each get their own
   answer, keyed by their own ids, and repeats of either still hit. *)
let test_ids_are_part_of_the_batch () =
  let srv = Serve.create M.F_ivm (Sg.star_database ()) ~features in
  Serve.apply_deltas srv (Sg.star_stream ~seed:5 30);
  let rename prefix (b : Batch.t) =
    {
      b with
      Batch.aggregates =
        List.map (fun (a : Spec.t) -> { a with Spec.id = prefix ^ a.Spec.id }) b.Batch.aggregates;
    }
  in
  let a = rename "a:" cov_batch and b = rename "b:" cov_batch in
  let ids r = List.map fst r in
  let ra = Serve.serve srv a in
  let rb = Serve.serve srv b in
  Alcotest.(check (list string)) "first batch keyed by its ids" (ids ra)
    (List.map (fun (s : Spec.t) -> s.Spec.id) a.Batch.aggregates);
  Alcotest.(check (list string)) "second batch keyed by its own ids" (ids rb)
    (List.map (fun (s : Spec.t) -> s.Spec.id) b.Batch.aggregates);
  let hits = (Serve.stats srv).Serve.hits in
  Alcotest.(check (list string)) "a repeat hits with its own ids" (ids rb) (ids (Serve.serve srv b));
  Alcotest.(check int) "the repeat was a hit" (hits + 1) (Serve.stats srv).Serve.hits

(* Concurrent clients: K pool tasks serving the same mix must each get the
   bit-identical answer. A worker budget is forced (this machine may
   default to zero tokens) so real domains are exercised. *)
let test_concurrent_clients () =
  let saved = Util.Pool.worker_budget () in
  Util.Pool.set_worker_budget 3;
  Fun.protect ~finally:(fun () -> Util.Pool.set_worker_budget saved)
  @@ fun () ->
  let srv = Serve.create M.Higher_order (Sg.star_database ()) ~features in
  Serve.apply_deltas srv (Sg.star_stream ~seed:7 80);
  (* warm the cache sequentially so the concurrent burst only reads *)
  List.iter (fun b -> ignore (Serve.serve srv b)) all_batches;
  let fresh_eval b =
    (Lmfao.Engine.eval ~on_cyclic:`Materialize (Serve.snapshot srv) b).Lmfao.Engine.keyed
  in
  let expected = List.map fresh_eval all_batches in
  let burst = List.concat (List.init 4 (fun _ -> all_batches)) in
  let got = Serve.serve_many ~clients:4 srv burst in
  List.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "client result %d bit-identical" i)
        true
        (Spec.keyed_bits_equal (Spec.sort_keyed r)
           (Spec.sort_keyed (List.nth expected (i mod 3)))))
    got

(* The single-writer contract must be ENFORCED, not just documented. A model
   whose refresh parks on an atomic gate holds one [apply_deltas] open
   mid-flight on a spawned domain; any second writer entering during that
   window must raise [Serve.Concurrent_writer] instead of interleaving with
   the maintainer pass. Deterministic: the main domain only proceeds once
   the gate confirms the writer is inside. *)
let test_single_writer_enforced () =
  let entered = Atomic.make false and release = Atomic.make false in
  let blocking_model : Ml.Model_intf.t =
    (module struct
      let name = "blocker"
      let description = "test model that parks its refresh on a gate"

      type options = unit

      let default_options = ()

      type model = unit

      let needs = `Covariance
      let train_from_moments ?options:_ ?warm_start:_ _ = ()

      let refresh ?options:_ ~previous:_ _ =
        Atomic.set entered true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done

      let predict () _ = 0.0
      let encode _ () = ()
      let decode _ = ()
    end)
  in
  let srv = Serve.create M.F_ivm (Sg.star_database ()) ~features in
  Serve.apply_deltas srv (Sg.star_stream ~seed:3 30);
  ignore (Serve.Model.register srv blocking_model ~response:"m");
  let update = [ Delta.insert "D1" [| int 0; flt 1.0 |] ] in
  let writer = Domain.spawn (fun () -> Serve.apply_deltas srv update) in
  while not (Atomic.get entered) do
    Domain.cpu_relax ()
  done;
  (* the first writer is parked inside apply_deltas: every overlapping
     writer entry point must refuse *)
  let raises f =
    match f () with
    | _ -> false
    | exception Serve.Concurrent_writer _ -> true
  in
  Alcotest.(check bool) "overlapping apply_deltas raises" true
    (raises (fun () -> Serve.apply_deltas srv update));
  Alcotest.(check bool) "overlapping Model.refresh raises" true
    (raises (fun () -> Serve.Model.refresh srv "blocker"));
  Alcotest.(check bool) "overlapping Model.register raises" true
    (raises (fun () ->
         Serve.Model.register srv ~name:"second" blocking_model ~response:"m"));
  Atomic.set release true;
  Domain.join writer;
  (* the flag is released: writing works again, and the refused writers
     left no partial state behind (epoch advanced exactly once) *)
  let e = Serve.epoch srv in
  Serve.apply_deltas srv update;
  Alcotest.(check int) "writer flag released after the race" (e + 1)
    (Serve.epoch srv)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "serve"
    [
      ("differential", [ qcheck serving_differential ]);
      ( "cache",
        [
          Alcotest.test_case "stats and epoch bookkeeping" `Quick
            test_stats_and_epoch;
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients;
          Alcotest.test_case "batches differing only in ids" `Quick
            test_ids_are_part_of_the_batch;
        ] );
      ( "writer",
        [
          Alcotest.test_case "single-writer contract enforced" `Quick
            test_single_writer_enforced;
        ] );
    ]
