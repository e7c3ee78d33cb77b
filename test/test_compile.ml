(* Tests for the LMFAO pipeline (Plan -> Lower -> Passes -> Exec) and the
   plan cache in [Compile.Engine].

   The headline property is BIT-identity with the flat reference: on the
   integer-valued star schema every sum is exact, so [Lmfao.Engine] must
   produce exactly the floats [Batch.eval_flat] produces over the
   materialised join, with groups in [Faggregate.Grouped.Key.compare]
   order, across random databases and batches (including filters and
   group-bys) and every option combination. Further suites check the real
   schemas numerically, keys that mix packed and boxed representations,
   plan-cache reuse and revalidation, specialization fallbacks, and stage
   equivalence of the IR passes. *)

open Relational
module Spec = Aggregates.Spec
module Batch = Aggregates.Batch
module Feature = Aggregates.Feature
module Key = Factorized.Faggregate.Grouped_float.Key
module Engine = Lmfao.Engine
module Cengine = Compile.Engine

let int n = Value.Int n
let flt x = Value.Float x

(* Same star database as test_lmfao: fact F(a,b,c,m1,m2) with dims
   D1(a,x,u), D2(b,y), D3(c,z); all floats integer-valued so results are
   exact and bit comparisons are meaningful. *)
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

(* Keyed results sorted by id, exact zeros dropped: flat evaluation has no
   group that no join row reaches, where the engine may hold an explicit
   zero. [sort_groups] puts the flat reference's groups in [Key.compare]
   order; the engine's must already come back in it. *)
let canonical ?(sort_groups = false) keyed =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.map
       (fun (id, r) ->
         let r = List.filter (fun (_, v) -> v <> 0.0) r in
         (id, if sort_groups then List.sort (fun (a, _) (b, _) -> Key.compare a b) r else r))
       keyed)

let check_vs_flat ~options db batch =
  let flat = Batch.eval_flat (Database.materialise_join db) batch in
  let got = Engine.eval_batch ~options db batch in
  let ok = Spec.keyed_bits_equal (canonical got) (canonical ~sort_groups:true flat) in
  if not ok then Format.eprintf "MISMATCH vs flat on %s@." batch.Batch.name;
  ok

(* A run through the plan cache answers exactly as a fresh compile does. *)
let cached_matches_fresh ~options db batch =
  Spec.keyed_bits_equal
    (Engine.eval_batch ~options db batch)
    (Cengine.eval_batch ~options db batch)

let batch_of name db =
  match name with
  | "covariance" -> Batch.covariance features
  | "decision" -> Batch.decision_node ~db features
  | "mutualinfo" -> Batch.mutual_information [ "x"; "y"; "z" ]
  | "kmeans" -> Batch.kmeans features
  | _ -> assert false

(* Random ad-hoc batches: products with powers, group-bys, and one- or
   two-conjunct single-attribute filters (>=, <, =) over the star schema.
   Integer-valued constants keep evaluation exact. *)
let random_batch rng =
  let numeric = [ "m1"; "m2"; "u" ] in
  let categorical = [ "x"; "y"; "z"; "a"; "b"; "c" ] in
  let pick l = List.nth l (Util.Prng.int rng (List.length l)) in
  let subset l =
    List.filter (fun _ -> Util.Prng.int rng 3 = 0) l
  in
  let random_conjunct () =
    match Util.Prng.int rng 4 with
    | 0 -> Predicate.Ge (pick numeric, flt (float_of_int (Util.Prng.int rng 10)))
    | 1 -> Predicate.Lt (pick numeric, flt (float_of_int (Util.Prng.int rng 10)))
    | 2 -> Predicate.Eq (pick categorical, int (Util.Prng.int rng 4))
    | _ ->
        Predicate.In
          (pick categorical, [ int (Util.Prng.int rng 4); int (Util.Prng.int rng 4) ])
  in
  let random_spec i =
    let terms =
      List.map (fun a -> (a, 1 + Util.Prng.int rng 2)) (subset numeric)
    in
    let group_by = subset categorical in
    let filter =
      match Util.Prng.int rng 3 with
      | 0 -> Predicate.True
      | 1 -> random_conjunct ()
      | _ -> Predicate.And (random_conjunct (), random_conjunct ())
    in
    Spec.make ~filter ~id:(Printf.sprintf "q%d" i) ~terms ~group_by ()
  in
  let n = 1 + Util.Prng.int rng 8 in
  { Batch.name = "random"; aggregates = List.init n random_spec }

let default = Engine.default_options

let all_options =
  [
    ("default", default);
    ("no-share", { default with Engine.share = false });
    ("single-root", { default with Engine.multi_root = false });
    ("parallel", { default with Engine.parallel = true; chunk_threshold = 4 });
    ( "no-share single-root",
      { default with Engine.share = false; multi_root = false } );
  ]

let engine_matches_flat batch_name options_desc options =
  QCheck2.Test.make ~count:12
    ~name:
      (Printf.sprintf "engine = flat bitwise: %s (%s)" batch_name options_desc)
    QCheck2.Gen.(triple (int_range 0 25) (int_range 1 5) int)
    (fun (card, domain, seed) ->
      let rng = Util.Prng.create seed in
      let db = random_star rng card domain in
      check_vs_flat ~options db (batch_of batch_name db))

let random_batches_match options_desc options =
  QCheck2.Test.make ~count:30
    ~name:
      (Printf.sprintf "engine = flat bitwise: random batches (%s)" options_desc)
    QCheck2.Gen.(triple (int_range 0 30) (int_range 1 5) int)
    (fun (card, domain, seed) ->
      let rng = Util.Prng.create seed in
      let db = random_star rng card domain in
      check_vs_flat ~options db (random_batch rng))

(* ---- all datagen schemas ----

   Real-valued data: the engine agrees with the flat reference to a
   relative 1e-6, with groups in [Key.compare] order. *)

let datagen_schemas () =
  List.iter
    (fun (name, db, feats, mi) ->
      let join = Database.materialise_join db in
      List.iter
        (fun batch ->
          let got = canonical (Engine.eval_batch db batch) in
          let flat = canonical ~sort_groups:true (Batch.eval_flat join batch) in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s = flat" name batch.Batch.name)
            true
            (List.length got = List.length flat
            && List.for_all2
                 (fun (id, r) (id', r') ->
                   String.equal id id'
                   && List.map fst r = List.map fst r'
                   && Spec.result_equal r r')
                 got flat))
        [
          Batch.covariance feats;
          Batch.decision_node ~db feats;
          Batch.mutual_information mi;
        ])
    [
      ( "retailer",
        Datagen.Retailer.generate ~scale:0.02 ~seed:11 (),
        Datagen.Retailer.features,
        Datagen.Retailer.mi_attrs );
      ( "favorita",
        Datagen.Favorita.generate ~scale:0.02 ~seed:12 (),
        Datagen.Favorita.features,
        Datagen.Favorita.mi_attrs );
      ( "yelp",
        Datagen.Yelp.generate ~scale:0.02 ~seed:13 (),
        Datagen.Yelp.features,
        Datagen.Yelp.mi_attrs );
      ( "tpcds",
        Datagen.Tpcds.generate ~scale:0.02 ~seed:14 (),
        Datagen.Tpcds.features,
        Datagen.Tpcds.mi_attrs );
    ]

(* ---- packed and boxed keys ----

   Two-attribute group-bys whose keys pack for some rows and not for
   others: a negative int and an int >= 2^31 overflow the 31-bit fields of
   an arity-2 key, and a string column never packs. The group-by
   attributes sit in different relations, so keys are also merged across
   views. Groups must come back in value order, not representation order. *)

let mixed_keys () =
  let big = 1 lsl 31 in
  let r =
    Relation.of_list "R"
      (Schema.make
         [ ("a", Value.TInt); ("b", Value.TInt); ("k", Value.TInt);
           ("s", Value.TStr); ("m", Value.TFloat) ])
      (List.mapi
         (fun i (a, b, k, s) ->
           [| int a; int b; int k; Value.Str s; flt (float_of_int (i + 1)) |])
         [ (0, 0, 3, "x"); (0, 1, -5, "y"); (1, 0, big + 1, "x");
           (1, 1, 3, "y"); (2, 0, -5, "x"); (2, 1, 7, "x") ])
  in
  let d =
    Relation.of_list "D"
      (Schema.make [ ("a", Value.TInt); ("j", Value.TInt) ])
      [ [| int 0; int 2 |]; [| int 1; int (big + 3) |]; [| int 2; int (-1) |];
        [| int 0; int 0 |] ]
  in
  let e =
    Relation.of_list "E"
      (Schema.make [ ("b", Value.TInt); ("t", Value.TStr) ])
      [ [| int 0; Value.Str "p" |]; [| int 1; Value.Str "q" |];
        [| int 1; Value.Str "p" |] ]
  in
  let db = Database.create "mixed" [ r; d; e ] in
  let batch =
    {
      Batch.name = "mixed";
      aggregates =
        [
          Spec.make ~id:"jk" ~terms:[ ("m", 1) ] ~group_by:[ "j"; "k" ] ();
          Spec.make ~id:"ks" ~terms:[] ~group_by:[ "k"; "s" ] ();
          Spec.make ~id:"jt" ~terms:[ ("m", 2) ] ~group_by:[ "j"; "t" ] ();
          Spec.make ~id:"k" ~terms:[ ("m", 1) ] ~group_by:[ "k" ] ();
        ];
    }
  in
  List.iter
    (fun (desc, options) ->
      Alcotest.(check bool) (desc ^ ": = flat in Key.compare order") true
        (check_vs_flat ~options db batch))
    [ ("default", default);
      ("parallel", { default with Engine.parallel = true; chunk_threshold = 1 }) ]

(* ---- cyclic fallback ---- *)

let cyclic_fallback () =
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
  Obs.reset ();
  let ok =
    Obs.with_enabled true (fun () -> cached_matches_fresh ~options:default db batch)
  in
  Alcotest.(check bool) "cyclic batch bitwise via fallback" true ok;
  Alcotest.(check bool) "fallback counted" true
    (Obs.counter_value_by_name "lmfao.compile.cyclic" > 0);
  Obs.reset ()

(* ---- plan cache ---- *)

let plan_cache_behaviour () =
  let rng = Util.Prng.create 23 in
  let db = random_star rng 30 4 in
  let batch = Batch.covariance features in
  Obs.reset ();
  Obs.with_enabled true (fun () ->
      let first = Cengine.eval_batch db batch in
      let plans0 = Obs.counter_value_by_name "lmfao.compile.plans" in
      let again = Cengine.eval_batch db batch in
      Alcotest.(check bool) "second run bitwise equal" true
        (Spec.keyed_bits_equal first again);
      Alcotest.(check bool) "second run hit the plan cache" true
        (Obs.counter_value_by_name "lmfao.compile.cache_hits" > 0);
      Alcotest.(check int) "second run compiled nothing" plans0
        (Obs.counter_value_by_name "lmfao.compile.plans");
      (* a compiled plan revalidates against the live database: a fresh db
         with the same schema reuses it, and stays bit-identical *)
      let rng2 = Util.Prng.create 99 in
      let db2 = random_star rng2 25 3 in
      Alcotest.(check bool) "fresh data through the cached plan" true
        (cached_matches_fresh ~options:default db2 batch));
  Obs.reset ()

(* The plan signature covers the cardinality-dependent root assignment:
   pure counts root at the SMALLEST relation, so growing a different
   relation to be smallest must recompile rather than reuse a stale
   rooting (bit-identity with a fresh compile would break). *)
let cache_revalidates_roots () =
  let mk name attrs rows =
    Relation.of_list name (Schema.make attrs)
      (List.map (Array.map (fun v -> v)) rows)
  in
  let db small_d =
    let f_rows =
      List.init 6 (fun i -> [| int (i mod 3); flt (float_of_int i) |])
    in
    let d_rows = List.init (if small_d then 2 else 9) (fun i -> [| int (i mod 3); int i |]) in
    Database.create "two"
      [
        mk "F" [ ("a", Value.TInt); ("m", Value.TFloat) ] f_rows;
        mk "D" [ ("a", Value.TInt); ("x", Value.TInt) ] d_rows;
      ]
  in
  let batch = { Batch.name = "counts"; aggregates = [ Spec.count ~id:"n" ] } in
  Alcotest.(check bool) "small D" true
    (cached_matches_fresh ~options:default (db true) batch);
  (* same fingerprint, different smallest relation -> must recompile *)
  Alcotest.(check bool) "large D (roots moved)" true
    (cached_matches_fresh ~options:default (db false) batch)

(* ---- specialization fallbacks ----

   Only term columns that are boxed, or whose representation drifted since
   lowering, count: grouped slots run on the one grouped path. *)

let fallbacks_count_drift () =
  let rng = Util.Prng.create 5 in
  let db = random_star rng 20 3 in
  let batch = Batch.covariance features in
  let fallbacks () =
    Obs.reset ();
    Obs.with_enabled true (fun () -> ignore (Engine.eval db batch));
    Obs.counter_value_by_name "lmfao.compile.fallbacks"
  in
  Alcotest.(check int) "star covariance: no fallback" 0 (fallbacks ());
  (* a Null promotes the fact table's m1 column to boxed *)
  Relation.append (Database.relation db "F")
    [| int 0; int 0; int 0; Value.Null; flt 1.0 |];
  Alcotest.(check bool) "boxed term column counted" true (fallbacks () > 0);
  Obs.reset ()

(* ---- stage equivalence of the IR passes ---- *)

let lowered_plans db batch =
  let popts = Lmfao.Plan.default_options in
  let jt, groups = Lmfao.Plan.group_by_root popts db batch in
  let stats = Lmfao.Plan.fresh_stats () in
  List.map
    (fun (root, specs) ->
      Lmfao.Lower.rooted (Lmfao.Plan.build popts ~stats jt ~root specs))
    groups

let run_plans ~options db plans = Engine.run ~options db plans

let passes_preserve_results =
  QCheck2.Test.make ~count:20
    ~name:"each IR pass preserves execution bitwise"
    QCheck2.Gen.(triple (int_range 0 25) (int_range 1 5) int)
    (fun (card, domain, seed) ->
      let rng = Util.Prng.create seed in
      let db = random_star rng card domain in
      let batch =
        if Util.Prng.int rng 2 = 0 then Batch.covariance features
        else random_batch rng
      in
      let options = default in
      let raw = lowered_plans db batch in
      let reference = run_plans ~options db raw in
      (* cumulative: after each stage of the pipeline, results unchanged *)
      let _, ok =
        List.fold_left
          (fun (plans, ok) (pass_name, pass) ->
            let plans = List.map pass plans in
            let got = run_plans ~options db plans in
            let ok' = ok && Spec.keyed_bits_equal reference got in
            if not ok' && ok then
              Format.eprintf "PASS %s changed results@." pass_name;
            (plans, ok'))
          (raw, true) Lmfao.Passes.all
      in
      (* and each pass individually on the raw plan *)
      List.for_all
        (fun (pass_name, pass) ->
          let got = run_plans ~options db (List.map pass raw) in
          let ok = Spec.keyed_bits_equal reference got in
          if not ok then Format.eprintf "PASS %s (solo) changed results@." pass_name;
          ok)
        Lmfao.Passes.all
      && ok)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "compile"
    [
      ( "differential",
        List.concat_map
          (fun (desc, options) ->
            List.map
              (fun b -> qcheck (engine_matches_flat b desc options))
              [ "covariance"; "decision"; "mutualinfo"; "kmeans" ])
          all_options
        @ List.map
            (fun (desc, options) -> qcheck (random_batches_match desc options))
            all_options );
      ( "datagen",
        [ Alcotest.test_case "all schemas = flat" `Quick datagen_schemas ] );
      ( "keys",
        [ Alcotest.test_case "packed and boxed keys" `Quick mixed_keys ] );
      ("cyclic", [ Alcotest.test_case "WCOJ fallback" `Quick cyclic_fallback ]);
      ( "cache",
        [
          Alcotest.test_case "fingerprint cache hits and reuse" `Quick
            plan_cache_behaviour;
          Alcotest.test_case "signature revalidates roots" `Quick
            cache_revalidates_roots;
        ] );
      ( "fallbacks",
        [ Alcotest.test_case "count drifted term columns" `Quick fallbacks_count_drift ] );
      ("passes", [ qcheck passes_preserve_results ]);
    ]
