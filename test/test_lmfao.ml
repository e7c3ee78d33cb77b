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

(* View groups scan each relation at most twice per batch, however many
   roots the batch has: an up pass, one merged step over the largest
   relation C and its largest neighbour N, and a down pass. The merged
   step runs by key blocks on these clustered databases, so C is scanned
   once and every other relation at most twice: when every pass has a
   view to compute at every relation, as covariance and k-means do,
   exactly 2·Σ|R| − |C| tuples. Decision-node and mutual-information
   batches root nothing under Demographics at this scale, so its down
   pass has no view and is skipped: those scan what the schedule holds,
   still at most 2·Σ|R| − |C|. One scan per root per relation (five on
   retailer) fails, and so does a step that scans C twice. *)
let scans_at_most_twice () =
  let check ?(every_pass = true) name db batch =
    let plan, _ = Engine.compile db batch in
    Obs.reset ();
    Obs.with_enabled true (fun () -> ignore (Engine.eval db batch));
    let c = Obs.counter_value_by_name in
    let scanned = c "lmfao.tuples_scanned" in
    let card r = Relation.cardinality (Database.relation db r) in
    let scheduled =
      List.fold_left
        (fun n -> function
          | Lmfao.Plan.Scan (r, _) -> n + card r
          | Lmfao.Plan.Merge m ->
              let n_scans = List.length (List.filter (fun vs -> vs <> [||]) [ m.up; m.down ]) in
              n + card m.c_rel + (n_scans * card m.n_rel))
        0 plan.Lmfao.Plan.steps
    in
    let total = Database.total_cardinality db in
    let largest =
      List.fold_left (fun m r -> Stdlib.max m (Relation.cardinality r)) 0 (Database.relations db)
    in
    Alcotest.(check int) (name ^ ": the merged step ran by blocks") 0 (c "lmfao.merge_fallbacks");
    Alcotest.(check int) (name ^ ": tuples scanned = scheduled, C once") scheduled scanned;
    if every_pass then
      Alcotest.(check int)
        (Printf.sprintf "%s: tuples scanned = 2 * %d - %d" name total largest)
        ((2 * total) - largest) scanned
    else
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d tuples scanned <= 2 * %d - %d" name scanned total largest)
        true
        (scanned <= (2 * total) - largest)
  in
  let retailer = Datagen.Retailer.generate ~scale:0.02 ~seed:3 () in
  let rf = Datagen.Retailer.features in
  List.iter
    (fun (family, every_pass, batch) -> check ~every_pass ("retailer " ^ family) retailer batch)
    [
      ("covariance", true, Batch.covariance rf);
      ("k-means", true, Batch.kmeans rf);
      ("decision node", false, Batch.decision_node ~db:retailer rf);
      ("mutual information", false, Batch.mutual_information Datagen.Retailer.mi_attrs);
    ];
  List.iter
    (fun (name, db, features) -> check (name ^ " covariance") db (Batch.covariance features))
    [
      ("favorita", Datagen.Favorita.generate ~scale:0.02 ~seed:4 (), Datagen.Favorita.features);
      ("yelp", Datagen.Yelp.generate ~scale:0.02 ~seed:5 (), Datagen.Yelp.features);
      ("tpcds", Datagen.Tpcds.generate ~scale:0.02 ~seed:6 (), Datagen.Tpcds.features);
    ];
  Obs.reset ()

(* ---- allocation guard ----

   The scan loop allocates nothing per input row. A copy of the database
   in which every relation holds each of its rows twice has the same keys
   and view sizes and twice the rows, so evaluating it may cost more
   minor words than the original only through per-row allocation: the
   difference must stay under one word per added row on all four
   families. Boxing one key or one float per row reads two or more. *)

let rows_twice ?once_more db =
  Database.create (Database.name db)
    (List.map
       (fun r ->
         let n = Relation.cardinality r in
         let out = Relation.create ~capacity:((2 * n) + 1) (Relation.name r) (Relation.schema r) in
         for _ = 1 to 2 do
           for i = 0 to n - 1 do
             Relation.append_from out r i
           done
         done;
         (* [once_more]: that relation's first row a third time *)
         if once_more = Some (Relation.name r) && n > 0 then Relation.append_from out r 0;
         out)
       (Database.relations db))

let no_allocation_per_row () =
  let rf = Datagen.Retailer.features in
  let check db =
    let twice = rows_twice db in
    let added = float_of_int (Database.total_cardinality db) in
    List.iter
      (fun (family, batch) ->
        (* minor words of one evaluation after a warm-up one, and its
           merged step's key blocks *)
        let words db =
          ignore (Engine.eval_batch db batch);
          Obs.reset ();
          let before = Gc.minor_words () in
          Obs.with_enabled true (fun () -> ignore (Engine.eval_batch db batch));
          let words = Gc.minor_words () -. before in
          let blocks = Obs.counter_value_by_name "lmfao.merge_blocks" in
          Obs.reset ();
          (words, blocks)
        in
        let once, blocks = words db and doubled, blocks' = words twice in
        let per_row = (doubled -. once) /. added in
        Alcotest.(check bool)
          (Printf.sprintf "%s at %d rows: %.2f minor words per added row < 1 (%d -> %d key blocks)"
             family (Database.total_cardinality db) per_row blocks blocks')
          true (per_row < 1.0))
      [
        ("covariance", Batch.covariance rf);
        ("k-means", Batch.kmeans rf);
        ("decision node", Batch.decision_node ~db rf);
        ("mutual information", Batch.mutual_information Datagen.Retailer.mi_attrs);
      ]
  in
  check (Datagen.Retailer.generate ~scale:0.05 ~seed:1 ());
  (* Weather spans three key blocks at scale 0.5, six when doubled: each
     block binds nothing, so the added blocks cost no word per row either *)
  check (Datagen.Retailer.generate ~scale:0.5 ~seed:1 ())

(* [db]'s relations imported into pages of [page_rows] rows and read back
   through a cache of [cache_pages] pages each, as a streamed database;
   [f] runs on it inside a temporary directory. *)
let on_pages ~page_rows ~cache_pages db f =
  Scenario.with_temp_dir @@ fun dir ->
  let paged =
    List.map
      (fun rel ->
        ignore (Store.Loader.import_relation ~dir ~page_rows rel);
        Store.Paged.openr ~cache_pages ~dir (Relation.name rel))
      (Database.relations db)
  in
  Fun.protect ~finally:(fun () -> List.iter Store.Paged.close paged) @@ fun () ->
  f
    (Database.create_streamed (Database.name db ^ "_paged")
       (List.map (fun p -> (Store.Paged.stub p, Some (Store.Paged.stream p))) paged))

(* 8-row pages through a 1-page cache: every chunk is leased and released,
   most pages decode over the arrays of released ones, and the merged
   step's blocks span about 128 pages of N, all but the current one
   released at every block. All four families equal the in-memory run bit
   for bit. *)
let leased_pages_bitwise () =
  let db = Datagen.Retailer.generate ~scale:0.5 ~seed:3 () in
  let rf = Datagen.Retailer.features in
  on_pages ~page_rows:8 ~cache_pages:1 db @@ fun sdb ->
  List.iter
    (fun (family, batch) ->
      let r_mem = Engine.eval_batch db batch in
      Obs.reset ();
      let r = Obs.with_enabled true (fun () -> Engine.eval_batch sdb batch) in
      let c = Obs.counter_value_by_name in
      let blocks = c "lmfao.merge_blocks" and recycled = c "store.pages_recycled" in
      let reads = c "store.page_reads" in
      Obs.reset ();
      Alcotest.(check bool) (family ^ ": paged == in-memory") true (Spec.keyed_bits_equal r_mem r);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d key blocks, %d of %d page reads recycled" family blocks recycled reads)
        true
        (blocks >= 2 && recycled > 0))
    [
      ("covariance", Batch.covariance rf);
      ("k-means", Batch.kmeans rf);
      ("decision node", Batch.decision_node ~db rf);
      ("mutual information", Batch.mutual_information Datagen.Retailer.mi_attrs);
    ]

(* Words a warm k-means eval allocates in the major heap over 1,024-row
   pages (8-page caches) beyond those of the in-memory eval, at scales 0.25
   and 1 (four times the page reads). Full pages decode over released
   pages' arrays, so only short last pages and the odd promoted record
   remain: under 64 Ki words at both sizes, where a fresh decode of every
   page allocates more at the smaller size already. *)
let paged_major_words_bounded () =
  let batch = Batch.kmeans Datagen.Retailer.features in
  let major f =
    ignore (f ());
    let _, _, before = Gc.counters () in
    ignore (f ());
    let _, _, after = Gc.counters () in
    after -. before
  in
  List.iter
    (fun scale ->
      let db = Datagen.Retailer.generate ~scale ~seed:1 () in
      on_pages ~page_rows:1024 ~cache_pages:8 db @@ fun sdb ->
      let mem = major (fun () -> Engine.eval_batch db batch) in
      Obs.reset ();
      let paged = Obs.with_enabled true (fun () -> major (fun () -> Engine.eval_batch sdb batch)) in
      let reads = Obs.counter_value_by_name "store.page_reads" in
      Obs.reset ();
      Alcotest.(check bool)
        (Printf.sprintf "scale %g: %.0f major words beyond in-memory over %d page reads" scale
           (paged -. mem) reads)
        true
        (paged -. mem < 65536.0))
    [ 0.25; 1.0 ]

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

(* ---- in-order views ----

   A view whose keys arrive strictly increasing keeps no index and is
   found by binary search or walked by [seek]; the first key out of that
   order, or the first boxed key, builds the index from the recorded
   keys. Every key stays findable across both changes. *)
let flat_view_orders () =
  let module V = Lmfao.Flat_view in
  let v = V.create ~scalars:1 ~widths:[||] in
  for k = 0 to 49 do
    Alcotest.(check int) "appended" k (V.row v (3 * k));
    Alcotest.(check int) "repeat of the last key" k (V.row v (3 * k))
  done;
  Alcotest.(check bool) "increasing keys: in order" true (V.in_order v);
  let expect k = if k >= 0 && k < 150 && k mod 3 = 0 then k / 3 else -1 in
  (* a cursor walking forward over every key and the gaps between *)
  let cursor = ref 0 in
  for k = -2 to 152 do
    cursor := V.seek v !cursor k;
    let hit = if !cursor < v.V.rows && v.V.keys.(!cursor) = k then !cursor else -1 in
    Alcotest.(check int) "forward cursor" (expect k) hit
  done;
  (* stepping back: fresh cursors and binary search *)
  for k = 152 downto -2 do
    let c = V.seek v 0 k in
    let hit = if c < v.V.rows && v.V.keys.(c) = k then c else -1 in
    Alcotest.(check int) "cursor from the start" (expect k) hit;
    Alcotest.(check int) "find in order" (expect k) (V.find v k)
  done;
  Alcotest.(check int) "an out-of-order key is a new row" 50 (V.row v 1);
  Alcotest.(check bool) "out of order: indexed" false (V.in_order v);
  let boxed = [| Value.Str "k" |] in
  Alcotest.(check int) "a boxed key is a new row" 51 (V.row_boxed v boxed);
  for k = -2 to 152 do
    Alcotest.(check int) "find indexed" (if k = 1 then 50 else expect k) (V.find v k)
  done;
  Alcotest.(check int) "find boxed" 51 (V.find_boxed v boxed);
  (* a boxed key alone also takes a view out of order *)
  let w = V.create ~scalars:1 ~widths:[||] in
  ignore (V.row w 7);
  ignore (V.row_boxed w boxed);
  Alcotest.(check bool) "boxed key: indexed" false (V.in_order w);
  Alcotest.(check int) "find after a boxed key" 0 (V.find w 7);
  (* merging views whose keys follow on keeps the target in order *)
  let a = V.create ~scalars:1 ~widths:[||] and b = V.create ~scalars:1 ~widths:[||] in
  List.iter (fun k -> ignore (V.row a k)) [ 1; 4; 6 ];
  List.iter (fun k -> ignore (V.row b k)) [ 6; 8; 9 ];
  V.merge a b;
  Alcotest.(check bool) "merged in order" true (V.in_order a);
  Alcotest.(check (list int)) "merged rows" [ 0; 1; 2; 3; 4; -1 ]
    (List.map (V.find a) [ 1; 4; 6; 8; 9; 5 ])

(* ---- families ----

   A family's entries hold one value per member, contiguously: entries of
   width 1 and 3 side by side in one row, a chain promoted past the 16
   entries it scans, boxed keys, merges into new and existing entries, and
   extraction member by member. *)
let flat_view_families () =
  let module V = Lmfao.Flat_view in
  let widths = [| 1; 3; 1 |] in
  let v = V.create ~scalars:0 ~widths in
  let value (v : V.t) e m = v.V.values.(e lsr V.block_bits).((e land (V.block_size - 1)) + m) in
  let add (v : V.t) e m x =
    let b = v.V.values.(e lsr V.block_bits) and o = (e land (V.block_size - 1)) + m in
    b.(o) <- b.(o) +. x
  in
  let cell (v : V.t) r f = (r * v.V.families) + f in
  let r = V.row v 7 in
  let e = V.entry v (cell v r 1) 5 in
  for m = 0 to 2 do
    Alcotest.(check bool) "a new entry's members start at -0.0" true
      (Int64.bits_of_float (value v e m) = Int64.bits_of_float (-0.0))
  done;
  add v e 0 1.0;
  add v e 2 2.0;
  Alcotest.(check int) "the same key finds the same entry" e (V.entry v (cell v r 1) 5);
  (* 40 keys in one cell: promoted past 16, each still found *)
  for k = 0 to 39 do
    add v (V.entry v (cell v r 0) k) 0 (float_of_int k)
  done;
  for k = 0 to 39 do
    add v (V.entry v (cell v r 0) k) 0 1.0
  done;
  let boxed = [| Value.Str "s" |] in
  let eb = V.entry_boxed v (cell v r 2) boxed in
  add v eb 0 4.0;
  Alcotest.(check int) "a boxed key finds its entry" eb (V.entry_boxed v (cell v r 2) boxed);
  let members c m =
    List.sort compare
      (List.map (fun (k, x) -> (Array.to_list k, x)) (V.cell_bindings v c ~arity:1 ~member:m))
  in
  let key k = [ Value.Int k ] in
  Alcotest.(check (list (pair (list (of_pp Value.pp)) (float 0.0))))
    "member 0 of the wide family" [ (key 5, 1.0) ] (members (cell v r 1) 0);
  Alcotest.(check (list (pair (list (of_pp Value.pp)) (float 0.0))))
    "member 2 of the wide family" [ (key 5, 2.0) ] (members (cell v r 1) 2);
  Alcotest.(check (list (pair (list (of_pp Value.pp)) (float 0.0))))
    "the promoted chain" (List.init 40 (fun k -> (key k, float_of_int (k + 1))))
    (members (cell v r 0) 0);
  Alcotest.(check (list (pair (list (of_pp Value.pp)) (float 0.0))))
    "the boxed key" [ (Array.to_list boxed, 4.0) ] (members (cell v r 2) 0);
  (* merging: an existing key adds member by member, a new key and a new
     row arrive as they are *)
  let w = V.create ~scalars:0 ~widths in
  let rw = V.row w 7 in
  let e5 = V.entry w (cell w rw 1) 5 and e6 = V.entry w (cell w rw 1) 6 in
  List.iteri (fun m x -> add w e5 m x) [ 10.0; 20.0; 30.0 ];
  List.iteri (fun m x -> add w e6 m x) [ 0.5; -0.0; 1.5 ];
  let r9 = V.row w 9 in
  add w (V.entry w (cell w r9 0) 3) 0 7.0;
  V.merge v w;
  let triple k =
    let e = V.entry v (cell v r 1) k in
    List.map (fun m -> Int64.bits_of_float (value v e m)) [ 0; 1; 2 ]
  in
  let bits = List.map Int64.bits_of_float in
  Alcotest.(check (list int64)) "existing key: summed per member" (bits [ 11.0; 20.0; 32.0 ])
    (triple 5);
  Alcotest.(check (list int64)) "new key: taken as it is" (bits [ 0.5; -0.0; 1.5 ]) (triple 6);
  let r9' = V.find v 9 in
  Alcotest.(check bool) "new row merged" true (r9' >= 0);
  Alcotest.(check (float 0.0)) "new row's entry" 7.0 (value v (V.entry v (cell v r9' 0) 3) 0);
  (* a reset view is empty and in key order; rows and entries that reach
     its kept blocks again start from the initial values *)
  V.reset v;
  Alcotest.(check (pair int bool)) "reset: empty, in order" (0, true) (v.V.rows, V.in_order v);
  Alcotest.(check int) "reset: old keys gone" (-1) (V.find v 7);
  Alcotest.(check int) "reset: boxed keys gone" (-1) (V.find_boxed v boxed);
  let r = V.row v 9 in
  let e = V.entry v (cell v r 1) 5 in
  Alcotest.(check (list int64)) "reset: a reused entry starts at -0.0" (bits [ -0.0; -0.0; -0.0 ])
    (List.map (fun m -> Int64.bits_of_float (value v e m)) [ 0; 1; 2 ]);
  Alcotest.(check int) "reset: cells start empty" 0
    (List.length (V.cell_bindings v (cell v r 0) ~arity:1 ~member:0));
  let s = V.create ~scalars:2 ~widths:[||] in
  ignore (V.row s 4);
  let block = s.V.blocks.(0) in
  block.(1) <- 3.0;
  V.reset s;
  ignore (V.row s 8);
  Alcotest.(check bool) "reset: the scalar block is kept" true (s.V.blocks.(0) == block);
  Alcotest.(check (float 0.0)) "reset: a reused scalar starts at 0" 0.0 (V.scalar s 0 1)

(* Two thresholds that agree to six significant digits are two partials:
   the planner's canonical keys print constants exactly. At retailer scale
   0.05, seed 1, [prize >= 32.629302406863651] holds for 4004 join rows
   and [prize >= 32.629302472122255] for 1290; the engine tells the two
   apart as flat evaluation does. *)
let close_thresholds_two_partials () =
  let db = Datagen.Retailer.generate ~scale:0.05 ~seed:1 () in
  let count id t = Spec.make ~filter:(Predicate.Ge ("prize", flt t)) ~id ~terms:[] ~group_by:[] () in
  let batch =
    {
      Batch.name = "thresholds";
      aggregates = [ count "lo" 32.629302406863651; count "hi" 32.629302472122255 ];
    }
  in
  let flat = Batch.eval_flat (Database.materialise_join db) batch in
  let got = Engine.eval_batch db batch in
  List.iter
    (fun (id, expected) ->
      Alcotest.(check (float 0.0)) (id ^ ": flat") expected (Spec.scalar_result (List.assoc id flat));
      Alcotest.(check (float 0.0)) (id ^ ": engine") expected (Spec.scalar_result (List.assoc id got)))
    [ ("lo", 4004.0); ("hi", 1290.0) ]

(* One root rule for every aggregate: it roots at the smallest relation
   whose schema holds one of its group-by attributes or terms (any
   relation for a count); ties go to a relation holding a group-by
   attribute, then to the owner (first holder in join-tree order) of the
   earliest attribute, sorted group-bys before terms, then to join-tree
   order. The oracle restates the rule as one sort; every aggregate of
   the four retailer batches must root where it says, and every aggregate
   without a group-by where the previous rule rooted it (a scalar product
   at the smallest owner of one of its terms, ties to the earlier term; a
   count at the smallest relation). Spot checks at scale 1, where Weather
   (11,700 rows) outgrows Items (560): grouped aggregates move to the
   small relation holding their term. Yelp's Business and Attribute have
   one row per business, so they tie at any scale and the group-by
   holder wins. *)
let oracle_root jt (s : Spec.t) =
  let rels = Join_tree.relations jt in
  let holds a r = Schema.mem (Relation.schema r) a in
  let attrs = s.group_by @ List.map fst s.terms in
  let owner a = List.find (holds a) rels in
  let rank r =
    match List.find_index (fun a -> owner a == r) attrs with Some i -> i | None -> max_int
  in
  let ordered =
    List.stable_sort
      (fun a b ->
        compare
          (Relation.cardinality a, not (List.exists (fun g -> holds g a) s.group_by), rank a)
          (Relation.cardinality b, not (List.exists (fun g -> holds g b) s.group_by), rank b))
      (List.filter (fun r -> attrs = [] || List.exists (fun a -> holds a r) attrs) rels)
  in
  Relation.name (List.hd ordered)

let previous_scalar_root jt (s : Spec.t) =
  let rels = Join_tree.relations jt in
  let owner a = List.find (fun r -> Schema.mem (Relation.schema r) a) rels in
  match s.terms with
  | [] -> Relation.name (List.hd (List.stable_sort (fun a b -> compare (Relation.cardinality a) (Relation.cardinality b)) rels))
  | (a, _) :: rest ->
      Relation.name
        (List.fold_left
           (fun best (b, _) ->
             if Relation.cardinality (owner b) < Relation.cardinality best then owner b else best)
           (owner a) rest)

let root_choice () =
  let batches db =
    let f = Datagen.Retailer.features in
    [
      Batch.covariance f;
      Batch.kmeans f;
      Batch.decision_node ~db f;
      Batch.mutual_information Datagen.Retailer.mi_attrs;
    ]
  in
  let check_all db =
    let jt = Database.join_tree db in
    let root = Lmfao.Plan.choose_root jt ~default_root:"Inventory" in
    List.iter
      (fun (b : Batch.t) ->
        List.iter
          (fun (s : Spec.t) ->
            let name = b.Batch.name ^ " " ^ s.id in
            Alcotest.(check string) name (oracle_root jt s) (root s);
            if s.group_by = [] then
              Alcotest.(check string) (name ^ " as before") (previous_scalar_root jt s) (root s))
          b.Batch.aggregates)
      (batches db)
  in
  check_all (Datagen.Retailer.generate ~scale:0.05 ~seed:1 ());
  let db = Datagen.Retailer.generate ~scale:1.0 ~seed:1 () in
  check_all db;
  let spot db (b : Batch.t) terms group_by expected =
    let root = Lmfao.Plan.choose_root (Database.join_tree db) ~default_root:"?" in
    match
      List.find_opt
        (fun (s : Spec.t) -> s.terms = terms && s.group_by = group_by && s.filter = Predicate.True)
        b.Batch.aggregates
    with
    | Some s -> Alcotest.(check string) s.id expected (root s)
    | None -> Alcotest.fail (b.Batch.name ^ ": no such aggregate")
  in
  let covariance = Batch.covariance Datagen.Retailer.features in
  spot db covariance [ ("tot_area_sq_ft", 1) ] [ "rain" ] "Stores";
  spot db covariance [ ("population", 1) ] [ "category" ] "Demographics";
  spot db covariance [] [ "category"; "rain" ] "Items";
  spot db covariance [ ("maxtemp", 1); ("population", 1) ] [] "Demographics";
  spot db covariance [ ("inventoryunits", 1); ("maxtemp", 1) ] [] "Weather";
  let yelp = Datagen.Yelp.generate ~scale:0.05 ~seed:1 () in
  spot yelp (Batch.covariance Datagen.Yelp.features) [ ("bstars", 1) ] [ "attnoise" ] "Attribute"

(* [lmfao.slot_rows] is the partial updates a plan implies: over its
   views, slots times relation rows. On retailer at scale 0.05 the root
   rule takes covariance from 187,388 (grouped aggregates rooted at their
   group-by's owner, their terms pushed up through Inventory's views) to
   48,854, and leaves k-means, whose plan it does not change, at 13,124. *)
let slot_rows_guard () =
  let db = Datagen.Retailer.generate ~scale:0.05 ~seed:1 () in
  let slot_rows batch =
    Obs.reset ();
    Obs.with_enabled true (fun () -> ignore (Engine.compile db batch));
    let n = Obs.counter_value_by_name "lmfao.slot_rows" in
    Obs.reset ();
    n
  in
  let covariance = slot_rows (Batch.covariance Datagen.Retailer.features) in
  Alcotest.(check bool)
    (Printf.sprintf "covariance slot rows %d <= 60,000" covariance)
    true (covariance <= 60_000);
  Alcotest.(check int) "k-means slot rows" 13_124 (slot_rows (Batch.kmeans Datagen.Retailer.features))

(* The same data clustered at load, and refilled in a seeded shuffled
   order after [Database.create], as [Serve.snapshot] fills its copy. *)
let refill_shuffled ~seed db =
  let rels =
    List.map (fun r -> Relation.create (Relation.name r) (Relation.schema r)) (Database.relations db)
  in
  let copy = Database.create (Database.name db ^ "-shuffled") rels in
  let rng = Util.Prng.create seed in
  List.iter2
    (fun src dst ->
      let rows = Array.of_list (Relation.to_list src) in
      Util.Prng.shuffle_in_place rng rows;
      Array.iter (Relation.append dst) rows)
    (Database.relations db) rels;
  copy

(* LMFAO over a clustered retailer database and over its shuffled copy,
   sequentially and in parallel chunks on four domains, for all four
   families: bit for bit on the dyadic lattice, where every sum is exact,
   and within the derived error bound of flat evaluation on real data.
   Only the clustered runs merge-probe; a parallel clustered scan whose
   consumer probes out of key order (Inventory probing the Items view by
   ksn) takes the hash index and still matches the sequential bits. *)
let clustered_matches_shuffled () =
  let real = Datagen.Retailer.generate ~scale:0.05 ~seed:3 () in
  let lattice = Datagen.Stream_gen.lattice_database real in
  let features = Datagen.Retailer.features in
  let batches db =
    [
      Batch.covariance features;
      Batch.decision_node ~db features;
      Batch.mutual_information Datagen.Retailer.mi_attrs;
      Batch.kmeans features;
    ]
  in
  let run db batch parallel =
    Obs.reset ();
    let r =
      Obs.with_enabled true (fun () ->
          (Engine.eval ~options:{ default with parallel; chunk_threshold = 64 } db batch).Engine.keyed)
    in
    let c = Obs.counter_value_by_name in
    (r, c "lmfao.merge_probes", c "lmfao.hash_probes")
  in
  with_domains_env "4" @@ fun () ->
  List.iter
    (fun (data, exact) ->
      let shuffled = refill_shuffled ~seed:11 data in
      let join = Database.materialise_join data in
      List.iter
        (fun (batch : Batch.t) ->
          let what = Printf.sprintf "%s (%s)" batch.Batch.name (if exact then "lattice" else "real") in
          let runs =
            List.map
              (fun (db, parallel) -> (db == data, parallel, run db batch parallel))
              [ (data, false); (data, true); (shuffled, false); (shuffled, true) ]
          in
          let seq = match runs with (_, _, (r, _, _)) :: _ -> r | [] -> assert false in
          let reference = Batch.eval_flat_bounded join batch in
          let m = Batch.rounding_ops data ~join_rows:(Relation.cardinality join) batch in
          List.iter
            (fun (clustered, parallel, (r, merges, hashes)) ->
              let run_name =
                Printf.sprintf "%s, %s, %s" what
                  (if clustered then "clustered" else "shuffled")
                  (if parallel then "parallel" else "sequential")
              in
              if exact then
                Alcotest.(check bool) (run_name ^ ": bits") true (Spec.keyed_bits_equal seq r)
              else
                Alcotest.(check bool) (run_name ^ ": within bound") true
                  (Spec.keyed_within_bound ~m reference r);
              Alcotest.(check bool) (run_name ^ ": merge probes only when clustered") clustered
                (merges > 0);
              if clustered && parallel then
                Alcotest.(check bool) (run_name ^ ": out-of-order consumer hashed") true (hashes > 0))
            runs)
        (batches data))
    [ (lattice, true); (real, false) ];
  Obs.reset ()

(* ---- the merged edge ----

   The largest relation C and its largest neighbour N run as one loop over
   key blocks of [Exec.block_rows] rows of N, cut at key boundaries. Every
   view is fed its rows in scan order and reads only complete partials,
   so a run by blocks must match, bit for bit, a run of the same step as
   one block (its four scans). A copy whose C rows are appended after
   [Database.create] in reverse order is out of key order and runs as one
   block; on the dyadic lattice every sum is exact, so the order of the
   rows cannot move a bit and that copy is the reference. *)

(* The sorted results of [f] with its merged steps' counters: key blocks,
   steps run as one block, and those for key order. *)
let merge_counts f =
  Obs.reset ();
  let r = Obs.with_enabled true f in
  let c = Obs.counter_value_by_name in
  let counts = (c "lmfao.merge_blocks", c "lmfao.merge_fallbacks", c "lmfao.merge_fallbacks.order") in
  Obs.reset ();
  (Spec.sort_keyed r, counts)

let largest db =
  List.fold_left
    (fun m r -> if Relation.cardinality r > Relation.cardinality m then r else m)
    (List.hd (Database.relations db)) (Database.relations db)

(* [db]'s rows refilled after [Database.create], the largest relation's
   in reverse order. *)
let c_reversed db =
  let c = largest db in
  let rels =
    List.map
      (fun r ->
        Relation.create ~capacity:(max 1 (Relation.cardinality r)) (Relation.name r) (Relation.schema r))
      (Database.relations db)
  in
  let copy = Database.create (Database.name db ^ "-reversed") rels in
  List.iter2
    (fun src dst ->
      let n = Relation.cardinality src in
      for i = 0 to n - 1 do
        Relation.append_from dst src (if src == c then n - 1 - i else i)
      done)
    (Database.relations db) rels;
  copy

(* [db] run by blocks against its C-reversed copy run as one block,
   directly and through [Compile.Engine]: bit for bit, once each batch. *)
let blocks_match_one_block what db batches =
  let reversed = c_reversed db in
  List.iter
    (fun (batch : Batch.t) ->
      let what = what ^ " " ^ batch.Batch.name in
      let merged, (blocks, fallbacks, _) = merge_counts (fun () -> Engine.eval_batch db batch) in
      let one, counts = merge_counts (fun () -> Engine.eval_batch reversed batch) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: by %d blocks" what blocks)
        true
        (blocks >= 2 && fallbacks = 0);
      Alcotest.(check (triple int int int)) (what ^ ": reversed C runs as one block") (0, 1, 1) counts;
      Alcotest.(check bool) (what ^ ": blocks = one block, bitwise") true (Spec.keyed_bits_equal merged one);
      List.iter
        (fun (db, how) ->
          Alcotest.(check bool) (what ^ ": compiled, " ^ how) true
            (Spec.keyed_bits_equal merged (Spec.sort_keyed (Compile.Engine.eval_batch db batch))))
        [ (db, "by blocks"); (reversed, "as one block") ])
    batches

(* Retailer (Weather and Inventory) and favorita (Transactions and Sales)
   at scale 0.5, where N spans three and two blocks, all four families. *)
let merged_equals_one_block () =
  List.iter
    (fun (name, real, features, mi) ->
      let lattice = Datagen.Stream_gen.lattice_database real in
      blocks_match_one_block name lattice
        [
          Batch.covariance features;
          Batch.decision_node ~db:lattice features;
          Batch.mutual_information mi;
          Batch.kmeans features;
        ])
    [
      ( "retailer",
        Datagen.Retailer.generate ~scale:0.5 ~seed:3 (),
        Datagen.Retailer.features,
        Datagen.Retailer.mi_attrs );
      ( "favorita",
        Datagen.Favorita.generate ~scale:0.5 ~seed:3 (),
        Datagen.Favorita.features,
        Datagen.Favorita.mi_attrs );
    ]

(* Duplicate N keys across a block boundary: every row of the retailer
   lattice at scale 0.5 twice ([rows_twice]), with Weather's first row
   once more, so that the cut after [Exec.block_rows] rows falls between
   two rows of one key and the block runs on to the key's end. *)
let duplicates_across_a_boundary () =
  let lattice = Datagen.Stream_gen.lattice_database (Datagen.Retailer.generate ~scale:0.5 ~seed:3 ()) in
  let db = rows_twice ~once_more:"Weather" lattice in
  let weather = Database.relation db "Weather" in
  let key =
    Schema.positions (Relation.schema weather)
      (Schema.common (Relation.schema weather) (Relation.schema (Database.relation db "Inventory")))
  in
  let at i = List.map (fun p -> (Relation.get weather i).(p)) key in
  let cut = Lmfao.Exec.block_rows in
  Alcotest.(check bool) "one key on both sides of the first cut" true (at (cut - 1) = at cut);
  let rf = Datagen.Retailer.features in
  blocks_match_one_block "retailer twice" db [ Batch.covariance rf; Batch.kmeans rf ]

(* Relations larger than a block filled in random key order after
   [Database.create]: the merged step must run as one block and match
   flat evaluation, and so must the same rows clustered, by blocks. A
   step that skipped the order check would read, in each block, N->C
   partials holding only that block's rows of a key. All values are
   integers, so every sum is exact and the two runs agree bit for bit. *)
let unordered_falls_back () =
  let rng = Util.Prng.create 29 in
  let ri d = int (Util.Prng.int rng d) and rf () = flt (float_of_int (Util.Prng.int rng 10)) in
  let fact = Schema.make [ ("a", Value.TInt); ("b", Value.TInt); ("m1", Value.TFloat); ("m2", Value.TFloat) ] in
  let dim = Schema.make [ ("a", Value.TInt); ("x", Value.TInt); ("u", Value.TFloat) ] in
  let f_rows = List.init 4000 (fun _ -> [| ri 1000; ri 5; rf (); rf () |]) in
  let d_rows = List.init 3000 (fun _ -> [| ri 1000; ri 3; rf () |]) in
  let clustered = Database.create "two" [ Relation.of_list "F" fact f_rows; Relation.of_list "D" dim d_rows ] in
  let unordered =
    let f = Relation.create "F" fact and d = Relation.create "D" dim in
    let db = Database.create "two-unordered" [ f; d ] in
    List.iter (Relation.append f) f_rows;
    List.iter (Relation.append d) d_rows;
    db
  in
  let features =
    Feature.make ~response:"m1" ~thresholds_per_feature:3 ~continuous:[ "m2"; "u" ]
      ~categorical:[ "b"; "x" ] ()
  in
  List.iter
    (fun (batch : Batch.t) ->
      let run db = merge_counts (fun () -> Engine.eval_batch db batch) in
      let merged, (blocks, fallbacks, _) = run clustered in
      let one, counts = run unordered in
      Alcotest.(check bool) (batch.Batch.name ^ ": clustered, by blocks") true (blocks >= 2 && fallbacks = 0);
      Alcotest.(check (triple int int int)) (batch.Batch.name ^ ": unordered, one block") (0, 1, 1) counts;
      Alcotest.(check bool) (batch.Batch.name ^ ": unordered = clustered, bitwise") true
        (Spec.keyed_bits_equal merged one);
      List.iter
        (fun (db, how) ->
          Alcotest.(check bool) (batch.Batch.name ^ ": " ^ how ^ " = flat") true
            (check_engine_vs_flat ~options:default db batch))
        [ (clustered, "clustered"); (unordered, "unordered") ])
    [ Batch.covariance features; Batch.mutual_information [ "b"; "x" ] ]

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
      ( "merged edge",
        [
          Alcotest.test_case "by blocks = one block, lattice, all families" `Quick
            merged_equals_one_block;
          Alcotest.test_case "duplicate N keys across a block boundary" `Quick
            duplicates_across_a_boundary;
          Alcotest.test_case "unordered relations run as one block" `Quick unordered_falls_back;
        ] );
      ( "cyclic",
        [
          Alcotest.test_case "fallback reports real stats" `Quick
            cyclic_fallback_reports_stats;
        ] );
      ("sql", [ Alcotest.test_case "Spec.to_sql" `Quick test_spec_to_sql ]);
      ( "in-order views",
        [
          Alcotest.test_case "find and cursor across index builds" `Quick flat_view_orders;
          Alcotest.test_case "clustered = shuffled, all families" `Quick
            clustered_matches_shuffled;
        ] );
      ( "families",
        [
          Alcotest.test_case "entries by family in Flat_view" `Quick flat_view_families;
          Alcotest.test_case "one root rule" `Quick root_choice;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "close thresholds are two partials" `Quick
            close_thresholds_two_partials;
          Alcotest.test_case "dedup reduces partials" `Quick sharing_reduces_partials;
          Alcotest.test_case "obs counters mirror stats" `Quick counters_mirror_stats;
          Alcotest.test_case "slot rows of retailer plans" `Quick slot_rows_guard;
        ] );
      ( "scans",
        [
          Alcotest.test_case "each relation scanned at most twice" `Quick
            scans_at_most_twice;
          Alcotest.test_case "no minor allocation per input row" `Quick
            no_allocation_per_row;
        ] );
      ( "pages",
        [
          Alcotest.test_case "leased pages, 1-page cache, all families" `Quick leased_pages_bitwise;
          Alcotest.test_case "major words do not grow with pages" `Quick paged_major_words_bounded;
        ] );
      ( "edges",
        [
          Alcotest.test_case "additive filter unsupported" `Quick
            unsupported_additive_filter;
          Alcotest.test_case "empty join" `Quick empty_join_gives_zero;
        ] );
    ]
