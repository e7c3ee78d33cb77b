(* Tests for the LMFAO engine: every aggregate of every batch must equal the
   naive evaluation over the materialised join, across random databases,
   option combinations (sharing / multi-root / parallel), and batch types. *)

open Relational
module Spec = Aggregates.Spec
module Batch = Aggregates.Batch
module Feature = Aggregates.Feature
module Engine = Lmfao.Engine

let int n = Value.Int n
let flt x = Value.Float x

(* A small star database: fact F(a,b,c,m1,m2) with dims D1(a,x,u), D2(b,y),
   D3(c,z). a,b,c,x,y,z categorical (ints), m1,m2,u,v continuous floats. *)
let random_star rng card domain =
  let mk name attrs gen =
    let schema = Schema.make attrs in
    let rel = Relation.create name schema in
    for _ = 1 to card do
      Relation.append rel (gen ())
    done;
    rel
  in
  let ri d = int (Util.Prng.int rng d) in
  let rf () = flt (float_of_int (Util.Prng.int rng 10)) in
  let f =
    mk "F"
      [ ("a", Value.TInt); ("b", Value.TInt); ("c", Value.TInt);
        ("m1", Value.TFloat); ("m2", Value.TFloat) ]
      (fun () -> [| ri domain; ri domain; ri domain; rf (); rf () |])
  in
  let d1 =
    mk "D1"
      [ ("a", Value.TInt); ("x", Value.TInt); ("u", Value.TFloat) ]
      (fun () -> [| ri domain; ri 3; rf () |])
  in
  let d2 =
    mk "D2"
      [ ("b", Value.TInt); ("y", Value.TInt) ]
      (fun () -> [| ri domain; ri 3 |])
  in
  let d3 =
    mk "D3"
      [ ("c", Value.TInt); ("z", Value.TInt) ]
      (fun () -> [| ri domain; ri 3 |])
  in
  Database.create "star" [ f; d1; d2; d3 ]

let features =
  Feature.make ~response:"m1" ~thresholds_per_feature:3
    ~continuous:[ "m2"; "u" ] ~categorical:[ "x"; "y"; "z" ] ()

let check_engine_vs_flat ~options db batch =
  let flat = Batch.eval_flat (Database.materialise_join db) batch in
  let got = (Engine.eval ~options db batch).Engine.keyed in
  List.for_all
    (fun (id, reference) ->
      let mine = List.assoc id got in
      (* flat eval omits empty groups; engine may produce explicit scalar 0 *)
      let norm r =
        List.sort compare (List.filter (fun (_, v) -> Float.abs v > 1e-12) r)
      in
      let ok = norm mine = [] && norm reference = [] || Spec.result_equal (norm mine) (norm reference) in
      if not ok then
        Format.eprintf "MISMATCH %s@. engine: %s@. flat:   %s@." id
          (String.concat " "
             (List.map (fun (k, v) ->
                  Printf.sprintf "{%s}=%g"
                    (String.concat ","
                       (List.map (fun (a, x) -> a ^ "=" ^ Value.to_string x) k))
                    v)
                (norm mine)))
          (String.concat " "
             (List.map (fun (k, v) ->
                  Printf.sprintf "{%s}=%g"
                    (String.concat ","
                       (List.map (fun (a, x) -> a ^ "=" ^ Value.to_string x) k))
                    v)
                (norm reference)));
      ok)
    flat

let batch_of name db =
  match name with
  | "covariance" -> Batch.covariance features
  | "decision" -> Batch.decision_node ~db features
  | "mutualinfo" -> Batch.mutual_information [ "x"; "y"; "z" ]
  | "kmeans" -> Batch.kmeans features
  | _ -> assert false

let engine_matches_flat batch_name options_desc options =
  QCheck2.Test.make ~count:12
    ~name:(Printf.sprintf "%s batch = flat eval (%s)" batch_name options_desc)
    QCheck2.Gen.(triple (int_range 0 25) (int_range 1 5) int)
    (fun (card, domain, seed) ->
      let rng = Util.Prng.create seed in
      let db = random_star rng card domain in
      check_engine_vs_flat ~options db (batch_of batch_name db))

let default = Engine.default_options

let all_options =
  [
    ("default", default);
    ("no-share", { default with share = false });
    ("single-root", { default with multi_root = false });
    ("parallel", { default with parallel = true; chunk_threshold = 4 });
    ( "no-share single-root",
      { default with share = false; multi_root = false } );
  ]

let sharing_reduces_partials () =
  let rng = Util.Prng.create 17 in
  let db = random_star rng 40 4 in
  let batch = Batch.covariance features in
  let with_share = (Engine.eval ~options:default db batch).Engine.stats in
  let without =
    (Engine.eval ~options:{ default with share = false } db batch).Engine.stats
  in
  Alcotest.(check bool)
    (Printf.sprintf "shared %d < unshared %d partials" with_share.partials
       without.partials)
    true
    (with_share.partials < without.partials);
  Alcotest.(check bool) "some sharing happened" true (with_share.shared_away > 0)

let counters_mirror_stats () =
  let rng = Util.Prng.create 17 in
  let db = random_star rng 40 4 in
  let batch = Batch.covariance features in
  Obs.reset ();
  let stats =
    Obs.with_enabled true (fun () -> (Engine.eval db batch).Engine.stats)
  in
  Alcotest.(check int) "lmfao.views = stats.views" stats.views
    (Obs.counter_value_by_name "lmfao.views");
  Alcotest.(check int) "lmfao.partials = stats.partials" stats.partials
    (Obs.counter_value_by_name "lmfao.partials");
  Alcotest.(check int) "lmfao.shared_away = stats.shared_away" stats.shared_away
    (Obs.counter_value_by_name "lmfao.shared_away");
  Alcotest.(check bool) "sharing counted" true
    (Obs.counter_value_by_name "lmfao.shared_away" > 0);
  Alcotest.(check bool) "scans counted" true
    (Obs.counter_value_by_name "lmfao.tuples_scanned" > 0);
  Obs.reset ();
  (* disabled run leaves everything at zero *)
  ignore (Engine.eval db batch);
  Alcotest.(check int) "disabled leaves counters at zero" 0
    (Obs.counter_value_by_name "lmfao.views")

let unsupported_additive_filter () =
  let rng = Util.Prng.create 3 in
  let db = random_star rng 10 3 in
  let spec =
    Spec.make
      ~filter:(Predicate.Additive_ineq ([ ("m1", 1.0); ("u", 1.0) ], 5.0))
      ~id:"svm" ~terms:[] ~group_by:[] ()
  in
  let batch = { Batch.name = "svm"; aggregates = [ spec ] } in
  match Engine.eval db batch with
  | exception Engine.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

let empty_join_gives_zero () =
  (* dims that never match the fact *)
  let f =
    Relation.of_list "F"
      (Schema.make [ ("a", Value.TInt); ("m", Value.TFloat) ])
      [ [| int 1; flt 5.0 |] ]
  in
  let d =
    Relation.of_list "D"
      (Schema.make [ ("a", Value.TInt); ("x", Value.TInt) ])
      [ [| int 2; int 7 |] ]
  in
  let db = Database.create "empty" [ f; d ] in
  let batch =
    {
      Batch.name = "b";
      aggregates =
        [
          Spec.count ~id:"n";
          Spec.make ~id:"sx" ~terms:[ ("m", 1) ] ~group_by:[ "x" ] ();
        ];
    }
  in
  let results = (Engine.eval db batch).Engine.keyed in
  Alcotest.(check (float 0.0)) "count 0" 0.0 (Spec.scalar_result (List.assoc "n" results));
  Alcotest.(check int) "no groups" 0 (List.length (List.assoc "sx" results))

(* the bucket rewriting must answer the ORIGINAL decision-node batch ids *)
let bucketed_equals_flat =
  QCheck2.Test.make ~count:20 ~name:"bucket rewriting = flat decision batch"
    QCheck2.Gen.(triple (int_range 1 30) (int_range 1 5) int)
    (fun (card, domain, seed) ->
      let rng = Util.Prng.create seed in
      let db = random_star rng card domain in
      let thresholds =
        List.map
          (fun x -> (x, Batch.thresholds_for db x 4))
          features.Feature.continuous
      in
      let batch = Batch.decision_node ~db { features with thresholds_per_feature = 4 } in
      let flat = Batch.eval_flat (Database.materialise_join db) batch in
      let bucketed = Lmfao.Bucketed.decision_node_results db features ~thresholds in
      List.for_all
        (fun (id, reference) ->
          match List.assoc_opt id bucketed with
          | None -> false
          | Some mine ->
              let norm r =
                List.sort compare (List.filter (fun (_, v) -> Float.abs v > 1e-12) r)
              in
              norm mine = [] && norm reference = []
              || Spec.result_equal (norm mine) (norm reference))
        flat)

(* ---- parallel differential ----

   The parallel evaluator must be BIT-identical to the sequential one — not
   merely numerically close — because [Pool.parallel_chunks] fixes the
   decomposition and fold order independently of how many domains (or spawn
   tokens) execute the chunks. Inputs here are exact in floating point
   (integer-valued floats; every partial sum of products stays far below
   2^53), so any ordering difference would surface as a bit difference.
   Exercised under BORG_DOMAINS=1 (inline) and =4 (spawning, budget 3) via
   the env var the engine actually reads, across the share / multi_root
   option matrix. *)

let with_domains_env v f =
  let saved = Sys.getenv_opt "BORG_DOMAINS" in
  let saved_budget = Util.Pool.worker_budget () in
  Unix.putenv "BORG_DOMAINS" v;
  Util.Pool.set_worker_budget (Util.Pool.num_domains () - 1);
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "BORG_DOMAINS" (Option.value saved ~default:"");
      Util.Pool.set_worker_budget saved_budget)
    f

let parallel_matches_sequential options_desc options =
  QCheck2.Test.make ~count:8
    ~name:
      (Printf.sprintf "parallel = sequential bitwise (%s, domains 1 and 4)"
         options_desc)
    QCheck2.Gen.(triple (int_range 1 30) (int_range 1 5) int)
    (fun (card, domain, seed) ->
      let rng = Util.Prng.create seed in
      let db = random_star rng card domain in
      List.for_all
        (fun batch_name ->
          let batch = batch_of batch_name db in
          let seq =
            (Engine.eval ~options:{ options with Engine.parallel = false } db
               batch)
              .Engine.keyed
          in
          List.for_all
            (fun env ->
              with_domains_env env @@ fun () ->
              let par =
                (Engine.eval
                   ~options:
                     { options with Engine.parallel = true; chunk_threshold = 4 }
                   db batch)
                  .Engine.keyed
              in
              Spec.keyed_bits_equal (Spec.sort_keyed seq) (Spec.sort_keyed par))
            [ "1"; "4" ])
        [ "covariance"; "mutualinfo" ])

let parallel_differential_matrix =
  List.map
    (fun (desc, options) -> parallel_matches_sequential desc options)
    [
      ("default", default);
      ("no-share", { default with share = false });
      ("single-root", { default with multi_root = false });
      ( "no-share single-root",
        { default with share = false; multi_root = false } );
    ]

(* ---- cyclic fallback ----

   Cyclic schemas (no join tree) fall back to a materialised WCOJ join.
   The fallback must report REAL stats — one view (the join), one partial
   per aggregate — and bump the [lmfao.cyclic_fallback] counter, instead of
   the all-zero stats it used to fabricate. *)
let cyclic_fallback_reports_stats () =
  let tri name a b rows =
    Relation.of_list name
      (Schema.make [ (a, Value.TInt); (b, Value.TInt) ])
      (List.map (fun (x, y) -> [| int x; int y |]) rows)
  in
  let db =
    Database.create "triangle"
      [
        tri "R" "a" "b" [ (1, 2); (2, 3); (1, 3) ];
        tri "S" "b" "c" [ (2, 3); (3, 1); (3, 4) ];
        tri "T" "c" "a" [ (3, 1); (1, 2); (4, 1) ];
      ]
  in
  let batch =
    {
      Batch.name = "tri";
      aggregates =
        [ Spec.count ~id:"n"; Spec.make ~id:"ga" ~terms:[] ~group_by:[ "a" ] () ];
    }
  in
  (match Engine.eval ~on_cyclic:`Raise db batch with
  | exception Join_tree.Cyclic -> ()
  | _ -> Alcotest.fail "expected Cyclic on `Raise");
  Obs.reset ();
  let r =
    Obs.with_enabled true (fun () -> Engine.eval ~on_cyclic:`Materialize db batch)
  in
  Alcotest.(check int) "one materialised view" 1 r.Engine.stats.views;
  Alcotest.(check int) "one partial per aggregate" 2 r.Engine.stats.partials;
  Alcotest.(check int) "nothing shared" 0 r.Engine.stats.shared_away;
  Alcotest.(check int) "fallback counted" 1
    (Obs.counter_value_by_name "lmfao.cyclic_fallback");
  Alcotest.(check bool) "join tuples scanned" true
    (Obs.counter_value_by_name "lmfao.tuples_scanned" > 0);
  (* and the results are still right: the triangle query has exactly three
     matches, (1,2,3), (2,3,1) and (1,3,4) *)
  Alcotest.(check (float 0.0)) "count" 3.0
    (Spec.scalar_result (List.assoc "n" r.Engine.keyed));
  Obs.reset ()

let test_spec_to_sql () =
  let spec =
    Spec.make
      ~filter:(Predicate.Ge ("prize", Value.Float 10.0))
      ~id:"s" ~terms:[ ("maxtemp", 1); ("prize", 2) ] ~group_by:[ "category" ] ()
  in
  Alcotest.(check string) "sql"
    "SELECT category, SUM(maxtemp * prize * prize) FROM Q WHERE prize >= 10 GROUP BY category;"
    (Spec.to_sql spec);
  Alcotest.(check string) "count sql" "SELECT SUM(1) FROM Q;"
    (Spec.to_sql (Spec.count ~id:"n"))

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "lmfao"
    [
      ( "vs-flat",
        List.concat_map
          (fun (desc, options) ->
            List.map
              (fun b -> qcheck (engine_matches_flat b desc options))
              [ "covariance"; "decision"; "mutualinfo"; "kmeans" ])
          all_options );
      ("bucketed", [ qcheck bucketed_equals_flat ]);
      ("parallel-differential", List.map qcheck parallel_differential_matrix);
      ( "cyclic",
        [
          Alcotest.test_case "fallback reports real stats" `Quick
            cyclic_fallback_reports_stats;
        ] );
      ("sql", [ Alcotest.test_case "Spec.to_sql" `Quick test_spec_to_sql ]);
      ( "sharing",
        [
          Alcotest.test_case "dedup reduces partials" `Quick sharing_reduces_partials;
          Alcotest.test_case "obs counters mirror stats" `Quick counters_mirror_stats;
        ] );
      ( "edges",
        [
          Alcotest.test_case "additive filter unsupported" `Quick
            unsupported_additive_filter;
          Alcotest.test_case "empty join" `Quick empty_join_gives_zero;
        ] );
    ]
