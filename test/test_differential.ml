(* Differential testing: RANDOM aggregate batches evaluated by every engine
   in the repository — LMFAO (all option combinations collapse to one here),
   the tuple-at-a-time and columnar per-aggregate baselines, and the
   worst-case-optimal materialisation path — must all agree with the naive
   reference on random acyclic databases. This is the repository's broadest
   cross-engine consistency net. *)

open Relational
module Spec = Aggregates.Spec
module Batch = Aggregates.Batch

let int n = Value.Int n
let flt x = Value.Float x

(* random acyclic database: star or chain, int keys, float measures *)
let random_database rng =
  let card () = Util.Prng.int_range rng 0 25 in
  let domain = Util.Prng.int_range rng 1 5 in
  let mk name attrs gen =
    let rel = Relation.create name (Schema.make attrs) in
    for _ = 1 to card () do
      Relation.append rel (gen ())
    done;
    rel
  in
  let ri d = int (Util.Prng.int rng d) in
  let rf () = flt (float_of_int (Util.Prng.int rng 7)) in
  if Util.Prng.bool rng then
    (* star *)
    Database.create "star"
      [
        mk "F"
          [ ("a", Value.TInt); ("b", Value.TInt); ("m", Value.TFloat) ]
          (fun () -> [| ri domain; ri domain; rf () |]);
        mk "D1"
          [ ("a", Value.TInt); ("x", Value.TInt); ("u", Value.TFloat) ]
          (fun () -> [| ri domain; ri 3; rf () |]);
        mk "D2"
          [ ("b", Value.TInt); ("y", Value.TInt) ]
          (fun () -> [| ri domain; ri 3 |]);
      ]
  else
    (* chain *)
    Database.create "chain"
      [
        mk "R1"
          [ ("a", Value.TInt); ("m", Value.TFloat) ]
          (fun () -> [| ri domain; rf () |]);
        mk "R2"
          [ ("a", Value.TInt); ("b", Value.TInt); ("x", Value.TInt) ]
          (fun () -> [| ri domain; ri domain; ri 3 |]);
        mk "R3"
          [ ("b", Value.TInt); ("u", Value.TFloat); ("y", Value.TInt) ]
          (fun () -> [| ri domain; rf (); ri 3 |]);
      ]

let numeric_attrs db =
  List.filter
    (fun a ->
      List.exists
        (fun r ->
          match Schema.position_opt (Relation.schema r) a with
          | Some i -> (Schema.attr_at (Relation.schema r) i).ty = Value.TFloat
          | None -> false)
        (Database.relations db))
    (Database.attribute_names db)

let categorical_attrs db =
  List.filter
    (fun a -> a = "x" || a = "y")
    (Database.attribute_names db)

(* a random aggregate over the database's attributes *)
let random_spec rng db i =
  let numeric = Array.of_list (numeric_attrs db) in
  let categorical = Array.of_list (categorical_attrs db) in
  let terms =
    List.init (Util.Prng.int rng 3) (fun _ ->
        (Util.Prng.choice rng numeric, Util.Prng.int_range rng 1 2))
  in
  let group_by =
    if Array.length categorical = 0 then []
    else
      List.filteri
        (fun _ _ -> Util.Prng.bool rng)
        (Array.to_list categorical)
  in
  let filter =
    match Util.Prng.int rng 4 with
    | 0 -> Predicate.True
    | 1 -> Predicate.Ge (Util.Prng.choice rng numeric, flt (float_of_int (Util.Prng.int rng 5)))
    | 2 when Array.length categorical > 0 ->
        Predicate.Eq (Util.Prng.choice rng categorical, int (Util.Prng.int rng 3))
    | _ -> Predicate.Lt (Util.Prng.choice rng numeric, flt (float_of_int (Util.Prng.int rng 7)))
  in
  Spec.make ~filter ~id:(Printf.sprintf "agg%d" i) ~terms ~group_by ()

let norm r = List.sort compare (List.filter (fun (_, v) -> Float.abs v > 1e-9) r)

let agree a b =
  norm a = [] && norm b = [] || Spec.result_equal (norm a) (norm b)

let engines_agree =
  QCheck2.Test.make ~count:60 ~name:"random batches: all engines agree"
    QCheck2.Gen.int
    (fun seed ->
      let rng = Util.Prng.create seed in
      let db = random_database rng in
      let batch =
        {
          Batch.name = "random";
          aggregates = List.init (Util.Prng.int_range rng 1 8) (random_spec rng db);
        }
      in
      let join = Database.materialise_join db in
      let reference = Batch.eval_flat join batch in
      let lmfao = (Lmfao.Engine.eval db batch).Lmfao.Engine.keyed in
      let dbx = Baseline.Unshared.dbx join batch in
      let monet = Baseline.Unshared.monet join batch in
      let wcoj_join =
        Factorized.Wcoj.materialise
          ~order:(List.sort compare (Database.attribute_names db))
          (Database.relations db)
      in
      let via_wcoj = Batch.eval_flat wcoj_join batch in
      List.for_all
        (fun (id, expected) ->
          agree expected (List.assoc id lmfao)
          && agree expected (List.assoc id dbx)
          && agree expected (List.assoc id monet)
          && agree expected (List.assoc id via_wcoj))
        reference)

(* degree statistics sanity over the same random relations *)
let degree_stats_consistent =
  QCheck2.Test.make ~count:60 ~name:"degree stats: partitions cover, degrees sum"
    QCheck2.Gen.int
    (fun seed ->
      let rng = Util.Prng.create seed in
      let db = random_database rng in
      List.for_all
        (fun rel ->
          List.for_all
            (fun attr ->
              let ds = Stats.degrees rel attr in
              let total = List.fold_left (fun acc (_, c) -> acc + c) 0 ds in
              let heavy, light = Stats.heavy_light_partition rel attr in
              total = Relation.cardinality rel
              && Relation.cardinality heavy + Relation.cardinality light
                 = Relation.cardinality rel)
            (Schema.names (Relation.schema rel)))
        (Database.relations db))

let test_heavy_light_split () =
  let rel =
    Relation.of_list "R"
      (Schema.make [ ("a", Value.TInt) ])
      (List.init 100 (fun i -> [| int (if i < 90 then 0 else i) |]))
  in
  let stats = Stats.degree_stats ~threshold:10 rel "a" in
  Alcotest.(check int) "one heavy value" 1 (List.length stats.heavy);
  Alcotest.(check int) "ten light values" 10 stats.light_count;
  Alcotest.(check int) "max degree" 90 stats.max_degree;
  let heavy, light = Stats.heavy_light_partition ~threshold:10 rel "a" in
  Alcotest.(check int) "heavy tuples" 90 (Relation.cardinality heavy);
  Alcotest.(check int) "light tuples" 10 (Relation.cardinality light)

(* ---- incremental maintenance: the three IVM strategies against each
   other and against recompute, after EVERY batch of one seeded 500-update
   stream of inserts and deletes ---- *)

module M = Fivm.Maintainer
module Delta = Fivm.Delta
module Sg = Datagen.Stream_gen

let test_maintenance_strategies_agree () =
  let updates = Array.of_list (Sg.star_stream ~draw:Sg.Uniform ~seed:20260806 500) in
  let maintainers =
    List.map
      (fun s -> M.create s (Sg.star_database ()) ~features:Sg.star_features)
      [ M.F_ivm; M.Higher_order; M.First_order ]
  in
  let batch_size = 20 in
  let batches = Array.length updates / batch_size in
  for b = 0 to batches - 1 do
    List.iter
      (fun m ->
        for i = b * batch_size to ((b + 1) * batch_size) - 1 do
          M.apply m updates.(i)
        done)
      maintainers;
    match maintainers with
    | fivm :: others ->
        let reference = M.covariance fivm in
        Alcotest.(check bool)
          (Printf.sprintf "batch %d: F-IVM matches recompute" b)
          true
          (Rings.Covariance.equal_rel ~eps:1e-6 reference (M.recompute fivm));
        List.iter
          (fun m ->
            Alcotest.(check bool)
              (Printf.sprintf "batch %d: %s matches F-IVM" b
                 (M.strategy_name (M.strategy_of m)))
              true
              (Rings.Covariance.equal_rel ~eps:1e-6 reference (M.covariance m)))
          others
    | [] -> assert false
  done;
  (* the stream really exercised both directions *)
  let deletes =
    Array.fold_left
      (fun acc (u : Delta.update) -> if u.Delta.multiplicity < 0 then acc + 1 else acc)
      0 updates
  in
  Alcotest.(check bool) "stream contains deletes" true (deletes > 50)

(* ---- the shared bitwise comparators ---- *)

(* Spec.keyed_bits_equal, in canonical order (Spec.sort_keyed) and as
   given, accepts identical results and rejects each difference below. *)
let test_keyed_bits_rejects () =
  let by k v = ([ ("k", k) ], v) in
  let base =
    [ ("sum", [ by (int 1) 2.0; by (int 2) 3.0 ]); ("zero", [ ([], 0.0) ]) ]
  in
  let sum groups = [ ("sum", groups); ("zero", [ ([], 0.0) ]) ] in
  let sorted_equal a b = Spec.keyed_bits_equal (Spec.sort_keyed a) (Spec.sort_keyed b) in
  let rejected what a b =
    Alcotest.(check bool)
      (what ^ ": rejected in canonical order")
      false (sorted_equal a b);
    Alcotest.(check bool) (what ^ ": rejected as given") false (Spec.keyed_bits_equal a b)
  in
  Alcotest.(check bool) "identical results are equal" true
    (sorted_equal base base && Spec.keyed_bits_equal base base);
  rejected "one-ulp value" base (sum [ by (int 1) (Float.succ 2.0); by (int 2) 3.0 ]);
  rejected "-0.0 against 0.0" base [ List.hd base; ("zero", [ ([], -0.0) ]) ];
  rejected "float keys 1.0000001 / 1.0000002"
    (sum [ by (flt 1.0000001) 2.0 ])
    (sum [ by (flt 1.0000002) 2.0 ]);
  rejected "Int 1 against Str \"1\"" base (sum [ by (Value.Str "1") 2.0; by (int 2) 3.0 ]);
  rejected "Null against Str \"\""
    (sum [ by Value.Null 2.0 ])
    (sum [ by (Value.Str "") 2.0 ]);
  rejected "missing group" base (sum [ by (int 2) 3.0 ]);
  rejected "missing aggregate id" base [ List.hd base ];
  (* order: swapped groups are the same result, but not as given *)
  let swapped = sum [ by (int 2) 3.0; by (int 1) 2.0 ] in
  Alcotest.(check bool) "swapped groups: equal in canonical order" true
    (sorted_equal base swapped);
  Alcotest.(check bool) "swapped groups: rejected as given" false
    (Spec.keyed_bits_equal base swapped)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "differential"
    [
      ("cross-engine", [ qcheck engines_agree ]);
      ( "delta-stream",
        [
          Alcotest.test_case "all strategies + recompute agree per batch"
            `Quick test_maintenance_strategies_agree;
        ] );
      ( "comparators",
        [
          Alcotest.test_case "keyed bit equality rejects every difference" `Quick
            test_keyed_bits_rejects;
        ] );
      ( "degree-stats",
        [
          qcheck degree_stats_consistent;
          Alcotest.test_case "heavy/light split" `Quick test_heavy_light_split;
        ] );
    ]
