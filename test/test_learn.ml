(* Differential tests for online model maintenance (lib/serve Model +
   lib/ml Model_intf).

   The headline property mirrors test_serve.ml one level up the stack: a
   registered model that has only ever been WARM-refreshed (each refresh
   resumes from the previous parameters, statistics read from the
   maintained covariance triple) must equal a COLD retrain from scratch
   over a from-scratch recompute of the same statistics, after every delta
   batch of a random insert/delete stream, for all three maintenance
   strategies. "Equal" is the per-model audit policy of
   [Ml.Models.refresh_audit]: bit-identical encodings for direct solves
   (closed-form ridge, polynomial regression), prediction tolerance for
   iterative optimisers. Bitwise equality only holds under exact float
   arithmetic, so the streams are [Datagen.Stream_gen]'s star workload on
   the dyadic lattice. *)

open Relational
module M = Fivm.Maintainer
module Batch = Aggregates.Batch
module Sg = Datagen.Stream_gen

let flt x = Value.Float x
let features = Sg.star_features
let response = "m"
let strategies = [ (M.F_ivm, "fivm"); (M.Higher_order, "higher"); (M.First_order, "first") ]
let segment stream lo len = List.filteri (fun i _ -> i >= lo && i < lo + len) stream

(* ---------- the warm-vs-cold audit ---------- *)

let probes =
  List.concat_map
    (fun u -> List.map (fun v -> (u, v)) [ 0.125; 1.0; 2.5 ])
    [ 0.25; 1.5; 3.0 ]

let get_of (u, v) name =
  match name with
  | "intercept" -> flt 1.0
  | "u" -> flt u
  | "v" -> flt v
  | other -> invalid_arg ("unexpected feature " ^ other)

let encode_bytes p =
  let b = Buffer.create 256 in
  Ml.Model_intf.encode_packed b p;
  Buffer.contents b

(* Scenario.model_audit: served at the current epoch, and equal to a cold
   retrain over a from-scratch recompute per the model's audit policy. *)
let audit_model srv what name =
  match Scenario.model_audit ~probes:(List.map get_of probes) srv name with
  | Ok () -> ()
  | Error detail -> QCheck2.Test.fail_reportf "%s: %s: %s" what name detail

(* The differential: for each strategy, register the audited model set,
   then after every delta batch of a random lattice stream compare every
   warm-refreshed model against a cold retrain. *)
let audited_models = [ "linreg-closed"; "linreg-cg"; "linreg-gd"; "polyreg" ]

let warm_refresh_differential =
  QCheck2.Test.make ~count:4
    ~name:"warm refresh = cold retrain (all strategies, per-model audit)"
    QCheck2.Gen.(triple int (int_range 9 12) (int_range 3 5))
    (fun (seed, rounds, batch) ->
      List.for_all
        (fun (strategy, sname) ->
          let srv = Serve.create strategy (Sg.star_database ()) ~features in
          let initial = 16 in
          let stream =
            Sg.star_stream ~seed (initial + (rounds * batch))
          in
          Serve.apply_deltas srv (segment stream 0 initial);
          List.iter
            (fun m ->
              ignore
                (Serve.Model.register srv (Ml.Models.find_exn m) ~response))
            audited_models;
          for round = 1 to rounds do
            Serve.apply_deltas srv
              (segment stream (initial + ((round - 1) * batch)) batch);
            List.iter
              (audit_model srv (Printf.sprintf "%s round %d" sname round))
              audited_models
          done;
          true)
        strategies)

(* The snapshot-backed models (fm forces monomial moments, huber forces the
   row matrix — both recomputed from a snapshot because the triple only
   carries degree-2 moments) ride the same audit under their convergence
   envelope. Deterministic and small: their cold retrains are the expensive
   path the warm refresh exists to avoid. *)
let test_snapshot_backed_models () =
  let srv = Serve.create M.F_ivm (Sg.star_database ()) ~features in
  let stream = Sg.star_stream ~seed:23 60 in
  Serve.apply_deltas srv (segment stream 0 40);
  List.iter
    (fun m ->
      ignore (Serve.Model.register srv (Ml.Models.find_exn m) ~response))
    [ "fm"; "huber" ];
  for round = 1 to 5 do
    Serve.apply_deltas srv (segment stream (40 + ((round - 1) * 4)) 4);
    List.iter
      (audit_model srv (Printf.sprintf "snapshot-backed round %d" round))
      [ "fm"; "huber" ]
  done

(* ---------- staleness semantics ---------- *)

(* A model with budget K must lag the data by at most K epochs: apply_deltas
   leaves it alone while epoch - model_epoch <= K and warm-refreshes it the
   moment the next epoch would exceed the budget; Model.refresh forces
   freshness on demand and is a no-op when already current. *)
let test_staleness_budget () =
  let srv = Serve.create M.F_ivm (Sg.star_database ()) ~features in
  let stream = Sg.star_stream ~seed:5 100 in
  let seg = ref 0 in
  let advance n =
    Serve.apply_deltas srv (segment stream !seg n);
    seg := !seg + n
  in
  advance 30;
  let lazy_name =
    Serve.Model.register srv ~name:"lazy" ~max_staleness:2
      (Ml.Models.find_exn "linreg-closed")
      ~response
  in
  let eager_name =
    Serve.Model.register srv ~name:"eager"
      (Ml.Models.find_exn "linreg-closed")
      ~response
  in
  Alcotest.(check int) "registered at current epoch" 1
    (Serve.Model.epoch_of srv lazy_name);
  advance 5;
  advance 5;
  (* lag 2 <= budget: untouched; the zero-budget model tracks every epoch *)
  Alcotest.(check int) "within budget: not refreshed" 1
    (Serve.Model.epoch_of srv lazy_name);
  Alcotest.(check int) "zero staleness tracks the epoch" 3
    (Serve.Model.epoch_of srv eager_name);
  advance 5;
  (* lag would become 3 > budget: apply_deltas must refresh *)
  Alcotest.(check int) "budget exceeded: refreshed to current" 4
    (Serve.Model.epoch_of srv lazy_name);
  advance 5;
  let refreshes_before = (Serve.stats srv).Serve.model_refreshes in
  Serve.Model.refresh srv lazy_name;
  Alcotest.(check int) "on-demand refresh pulls to current" 5
    (Serve.Model.epoch_of srv lazy_name);
  Alcotest.(check int) "on-demand refresh counted"
    (refreshes_before + 1)
    (Serve.stats srv).Serve.model_refreshes;
  Serve.Model.refresh srv lazy_name;
  Alcotest.(check int) "refresh when current is a no-op"
    (refreshes_before + 1)
    (Serve.stats srv).Serve.model_refreshes;
  let predictions_before = (Serve.stats srv).Serve.model_predictions in
  let _value, tag = Serve.Model.predict srv lazy_name (get_of (1.0, 2.0)) in
  Alcotest.(check int) "prediction tagged with the parameter epoch" 5 tag;
  Alcotest.(check int) "prediction counted" (predictions_before + 1)
    (Serve.stats srv).Serve.model_predictions

(* ---------- clients_clamped (oversubscription is detectable) ---------- *)

let test_clients_clamped () =
  let saved = Util.Pool.worker_budget () in
  Util.Pool.set_worker_budget 1;
  Fun.protect ~finally:(fun () -> Util.Pool.set_worker_budget saved)
  @@ fun () ->
  let srv = Serve.create M.Higher_order (Sg.star_database ()) ~features in
  Serve.apply_deltas srv (Sg.star_stream ~seed:7 60);
  let batch = Batch.covariance_numeric features in
  let burst = List.init 6 (fun _ -> batch) in
  Alcotest.(check int) "no clamp yet" 0 (Serve.stats srv).Serve.clients_clamped;
  let within = Serve.serve_many ~clients:2 srv burst in
  Alcotest.(check int) "a request within the budget is not a clamp" 0
    (Serve.stats srv).Serve.clients_clamped;
  let over = Serve.serve_many ~clients:8 srv burst in
  Alcotest.(check int) "oversubscription recorded" 1
    (Serve.stats srv).Serve.clients_clamped;
  (* clamping degrades parallelism, never answers *)
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "clamped results identical" true (a = b))
    within over

(* ---------- codec round trips through the registry ---------- *)

let test_codec_roundtrip () =
  let srv = Serve.create M.F_ivm (Sg.star_database ()) ~features in
  Serve.apply_deltas srv (Sg.star_stream ~seed:13 80);
  let db = Serve.snapshot srv in
  let feature =
    Aggregates.Feature.make ~response ~continuous:[ "u"; "v" ] ~categorical:[] ()
  in
  let bundle = Ml.Model_intf.moments_of_database db feature in
  List.iter
    (fun spec ->
      let name = Ml.Model_intf.name spec in
      let packed = Ml.Model_intf.train_packed spec bundle in
      let bytes = encode_bytes packed in
      let decoded = Ml.Models.decode_packed (Codec.reader bytes) in
      Alcotest.(check string)
        (name ^ ": decode preserves the model name")
        (Ml.Model_intf.packed_name packed)
        (Ml.Model_intf.packed_name decoded);
      Alcotest.(check string)
        (name ^ ": decode/encode round-trips bit-exactly")
        bytes (encode_bytes decoded))
    Ml.Models.all

(* ---------- factorisation machine: moments vs rows ---------- *)

(* train_from_monomial_moments drives gradient descent purely from the
   degree-2 basis moments; train_on_rows computes the same full-batch
   gradient by passes over the explicit data matrix. Same initialisation
   (same params seed), mathematically identical gradients — the two may
   differ only in float rounding from summation order. *)
let test_fm_moment_vs_rows () =
  let rng = Util.Prng.create 31 in
  let dyadic () = float_of_int (1 + Util.Prng.int rng 64) /. 16.0 in
  let x = Array.init 40 (fun _ -> [| dyadic (); dyadic () |]) in
  let y = Array.map (fun r -> (0.5 *. r.(0)) -. (0.25 *. r.(1) *. r.(1))) x in
  let by_rows = Ml.Factorization_machine.train_on_rows x y in
  let moment =
    Ml.Monomial.moment_of_rows ~columns:[| "p"; "q" |]
      ~features:[ "p"; "q" ] ~response:"y" x y
  in
  let by_moments =
    Ml.Factorization_machine.train_from_monomial_moments moment
      ~features:[ "p"; "q" ]
  in
  Array.iteri
    (fun i row ->
      let a = Ml.Factorization_machine.predict by_rows row in
      let b = Ml.Factorization_machine.predict by_moments row in
      Alcotest.(check bool)
        (Printf.sprintf "row %d: moment-space gradient matches row-space" i)
        true
        (Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs a +. Float.abs b)))
    x

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "learn"
    [
      ("differential", [ qcheck warm_refresh_differential ]);
      ( "models",
        [
          Alcotest.test_case "snapshot-backed models (fm, huber)" `Quick
            test_snapshot_backed_models;
          Alcotest.test_case "fm: moments vs rows" `Quick
            test_fm_moment_vs_rows;
          Alcotest.test_case "codec round trips" `Quick test_codec_roundtrip;
        ] );
      ( "serving",
        [
          Alcotest.test_case "staleness budget and epoch tags" `Quick
            test_staleness_budget;
          Alcotest.test_case "clients_clamped" `Quick test_clients_clamped;
        ] );
    ]
