(* Tests for the LMFAO pipeline (Plan -> Exec) and the plan cache in
   [Compile.Engine].

   The headline property is BIT-identity with the flat reference: on the
   integer-valued star schema every sum is exact, so [Lmfao.Engine] must
   produce exactly the floats [Batch.eval_flat] produces over the
   materialised join, with groups in [Faggregate.Grouped.Key.compare]
   order, across random databases and batches (including filters and
   group-bys) and every option combination. Further suites check the real
   schemas numerically, keys of every shape a view holds, plan-cache
   reuse and revalidation, specialization fallbacks, and the planner's
   filter hoisting: a plan answers as its unhoisted copy does. *)

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

(* ---- view groups on random trees ----

   One scan of a relation feeds every view over it, so a single scan
   serves outputs whose partner sets differ: a row with no partner in
   N->X still counts toward X->N. Random star and path trees of 3-5
   relations R0..Rn-1, where edge (i, j) joins on its own attribute
   k<i>_<j> and every relation also has a category c<i> and a measure
   m<i> on the dyadic lattice (multiples of 1/16, so every sum is exact).
   Each relation gets one dangling tuple per edge, with a key its
   neighbour never holds, and the batch roots aggregates at every
   relation. *)

let random_tree ?(real = false) ?size rng =
  let n = 3 + Util.Prng.int rng 3 in
  let edges =
    if Util.Prng.int rng 2 = 0 then List.init (n - 1) (fun i -> (0, i + 1))
    else List.init (n - 1) (fun i -> (i, i + 1))
  in
  let key (i, j) = Printf.sprintf "k%d_%d" i j in
  let domain = 1 + Util.Prng.int rng 3 in
  let rel i =
    let mine = List.filter (fun (a, b) -> a = i || b = i) edges in
    let schema =
      Schema.make
        (List.map (fun e -> (key e, Value.TInt)) mine
        @ [ (Printf.sprintf "c%d" i, Value.TInt); (Printf.sprintf "m%d" i, Value.TFloat) ])
    in
    (* real measures: the lattice value scaled off the lattice, with the
       same draws *)
    let measure k = if real then (float_of_int k /. 16.0 *. 1.1) +. 0.01 else float_of_int k /. 16.0 in
    let row keys =
      Array.of_list
        (List.map int keys @ [ int (Util.Prng.int rng 3); flt (measure (Util.Prng.int rng 64)) ])
    in
    let random_rows =
      match size with Some size -> size i - List.length mine | None -> Util.Prng.int rng 7
    in
    let rows =
      List.init random_rows (fun _ ->
          row (List.map (fun _ -> Util.Prng.int rng domain) mine))
      (* dangling: this side's key on edge e is one its neighbour never has *)
      @ List.map
          (fun e ->
            let (a, _) = e in
            row (List.map (fun e' -> if e' = e then (if a = i then 100 else 200) else 0) mine))
          mine
    in
    Relation.of_list (Printf.sprintf "R%d" i) schema rows
  in
  Database.create "tree" (List.init n rel)

let tree_batch rng db =
  let n = List.length (Database.relations db) in
  let c i = Printf.sprintf "c%d" i and m i = Printf.sprintf "m%d" i in
  let pick () = Util.Prng.int rng n in
  let filter () =
    match Util.Prng.int rng 3 with
    | 0 -> Predicate.True
    | 1 -> Predicate.Eq (c (pick ()), int (Util.Prng.int rng 3))
    | _ -> Predicate.Ge (m (pick ()), flt (float_of_int (Util.Prng.int rng 4)))
  in
  let specs i =
    let id k = Printf.sprintf "r%d_%d" i k in
    [
      (* roots at R<i>: its category groups, its measure leads the terms *)
      Spec.make ~filter:(filter ()) ~id:(id 0) ~terms:[ (m (pick ()), 1) ]
        ~group_by:[ c i ] ();
      Spec.make ~filter:(filter ()) ~id:(id 1)
        ~terms:[ (m i, 1 + Util.Prng.int rng 2); (m (pick ()), 1) ]
        ~group_by:[] ();
      Spec.make ~filter:(filter ()) ~id:(id 2) ~terms:[]
        ~group_by:(List.sort_uniq compare [ c i; c (pick ()) ])
        ();
    ]
  in
  {
    Batch.name = "tree";
    aggregates = Spec.count ~id:"n" :: List.concat (List.init n specs);
  }

let view_groups_match_flat (desc, options) =
  QCheck2.Test.make ~count:40
    ~name:(Printf.sprintf "engine = flat bitwise: random trees, lattice data (%s)" desc)
    QCheck2.Gen.int
    (fun seed ->
      let rng = Util.Prng.create seed in
      let db = random_tree rng in
      check_vs_flat ~options db (tree_batch rng db))

(* ---- families ----

   Batches built to form families on the random trees: several group sets
   of one to three categories, each under a few filters from a small pool
   (conjuncts on several relations among them), each with several products
   of measures across relations, so that slots share keys in every shape a
   family takes — local group columns only, one grouped child and no local
   group, local columns merged with grouped children — beside scalar
   products across relations and a count. On the lattice the engine must
   match flat evaluation bit for bit; on real measures (the same draws
   scaled off the lattice) within [Spec.within_bound]; both sequentially
   and in parallel chunks on four domains. *)

let family_batch rng db =
  let n = List.length (Database.relations db) in
  let c i = Printf.sprintf "c%d" i and m i = Printf.sprintf "m%d" i in
  let pick () = Util.Prng.int rng n in
  let filters =
    [
      Predicate.True;
      Predicate.Eq (c (pick ()), int (Util.Prng.int rng 3));
      Predicate.And
        ( Predicate.Ge (m (pick ()), flt (float_of_int (Util.Prng.int rng 3))),
          Predicate.Eq (c (pick ()), int (Util.Prng.int rng 3)) );
    ]
  in
  let products () =
    List.init
      (2 + Util.Prng.int rng 3)
      (fun _ ->
        match Util.Prng.int rng 3 with
        | 0 -> []
        | 1 -> [ (m (pick ()), 1 + Util.Prng.int rng 2) ]
        | _ -> [ (m (pick ()), 1); (m (pick ()), 1) ])
  in
  let group_sets =
    List.init
      (2 + Util.Prng.int rng 3)
      (fun _ -> List.sort_uniq compare (List.init (1 + Util.Prng.int rng 3) (fun _ -> c (pick ()))))
  in
  let id = ref 0 in
  let spec filter terms group_by =
    incr id;
    Spec.make ~filter ~id:(Printf.sprintf "f%d" !id) ~terms ~group_by ()
  in
  let grouped =
    List.concat_map
      (fun group_by ->
        List.concat_map
          (fun filter ->
            if Util.Prng.int rng 2 = 0 then []
            else List.map (fun terms -> spec filter terms group_by) (products ()))
          filters)
      group_sets
  in
  let scalar = List.map (fun terms -> spec Predicate.True terms []) (products ()) in
  { Batch.name = "families"; aggregates = (Spec.count ~id:"n" :: grouped) @ scalar }

let on_four_domains f =
  let saved = Sys.getenv_opt "BORG_DOMAINS" and budget = Util.Pool.worker_budget () in
  Unix.putenv "BORG_DOMAINS" "4";
  Util.Pool.set_worker_budget 3;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "BORG_DOMAINS" (Option.value saved ~default:"");
      Util.Pool.set_worker_budget budget)
    f

let families_match_flat =
  QCheck2.Test.make ~count:25
    ~name:"families: engine = flat (lattice bitwise, real within bound), sequential and parallel"
    QCheck2.Gen.int
    (fun seed ->
      let lattice = random_tree (Util.Prng.create seed) in
      let real = random_tree ~real:true (Util.Prng.create seed) in
      let batch = family_batch (Util.Prng.create (seed + 1)) lattice in
      let within db options =
        let join = Database.materialise_join db in
        let m = Batch.rounding_ops db ~join_rows:(Relation.cardinality join) batch in
        Spec.keyed_within_bound ~m (Batch.eval_flat_bounded join batch)
          (Engine.eval_batch ~options db batch)
      in
      let parallel = { default with Engine.parallel = true; chunk_threshold = 2 } in
      let sequential_ok = check_vs_flat ~options:default lattice batch && within real default in
      sequential_ok
      && on_four_domains (fun () -> check_vs_flat ~options:parallel lattice batch && within real parallel))

(* ---- pushed group keys ----

   The root rule roots a grouped aggregate at the smallest relation
   holding one of its attributes, so where a term lives in a strictly
   smaller relation than the group-by, the aggregate sums there and its
   group key is pushed down the join tree through the views between.
   Random trees whose relations hold either 5 or 7 rows (so, with three
   or more relations, two always tie), and for every ordered pair of
   relations i, j: sum(m<j>)|c<i> (a pushed key when R<j> is smaller, a
   tie rooted at R<i> when they are equal), sum(m<i>*m<j>)|c<i>, a count
   grouped by c<i> and a random second category, and sum(m<j>^2)|c<i>
   under a filter. Each case must push at least one key and resolve at
   least one tie; the lattice copy must match flat evaluation bit for bit
   and the real one stay within [Spec.within_bound], sequentially and in
   parallel chunks on four domains. *)

let pushed_keys_batch rng db =
  let rels = Database.relations db in
  let n = List.length rels in
  let c i = Printf.sprintf "c%d" i and m i = Printf.sprintf "m%d" i in
  let id = ref 0 in
  let spec ?(filter = Predicate.True) terms group_by =
    incr id;
    Spec.make ~filter ~id:(Printf.sprintf "p%d" !id) ~terms ~group_by:(List.sort_uniq compare group_by) ()
  in
  let ids = List.init n Fun.id in
  let pairs = List.concat_map (fun i -> List.filter_map (fun j -> if i = j then None else Some (i, j)) ids) ids in
  let aggregates =
    List.concat_map
      (fun (i, j) ->
        let filter = Predicate.Eq (c (Util.Prng.int rng n), int (Util.Prng.int rng 3)) in
        [
          spec [ (m j, 1) ] [ c i ];
          spec [ (m i, 1); (m j, 1) ] [ c i ];
          spec [] [ c i; c (Util.Prng.int rng n) ];
          spec ~filter [ (m j, 2) ] [ c i ];
        ])
      pairs
  in
  { Batch.name = "pushed"; aggregates = Spec.count ~id:"n" :: aggregates }

let pushed_group_keys =
  QCheck2.Test.make ~count:25
    ~name:"pushed group keys: engine = flat (lattice bitwise, real within bound), sequential and parallel"
    QCheck2.Gen.int
    (fun seed ->
      let classes = Util.Prng.create (seed + 2) in
      let sizes = Array.init 5 (fun i -> if i < 2 then 5 + (2 * i) else 5 + (2 * Util.Prng.int classes 2)) in
      let size i = sizes.(i) in
      let lattice = random_tree ~size (Util.Prng.create seed) in
      let real = random_tree ~real:true ~size (Util.Prng.create seed) in
      let batch = pushed_keys_batch (Util.Prng.create (seed + 1)) lattice in
      let jt = Database.join_tree lattice in
      let root_of = Lmfao.Plan.choose_root jt ~default_root:"R0" in
      let owner a = List.find (fun r -> Schema.mem (Relation.schema r) a) (Join_tree.relations jt) in
      let pushed, ties =
        List.fold_left
          (fun (pushed, ties) (s : Spec.t) ->
            match (s.group_by, s.terms) with
            | [ g ], (t, _) :: _ ->
                let root = Join_tree.relation_by_name jt (root_of s) in
                let tie = Relation.cardinality (owner g) = Relation.cardinality (owner t) && owner g != owner t in
                (pushed || root != owner g, ties || (tie && root == owner g))
            | _ -> (pushed, ties))
          (false, false) batch.Batch.aggregates
      in
      let flat = canonical ~sort_groups:true (Batch.eval_flat (Database.materialise_join lattice) batch) in
      let join = Database.materialise_join real in
      let bounded = Batch.eval_flat_bounded join batch in
      let m = Batch.rounding_ops real ~join_rows:(Relation.cardinality join) batch in
      let matches options =
        Spec.keyed_bits_equal (canonical (Engine.eval_batch ~options lattice batch)) flat
        && Spec.keyed_within_bound ~m bounded (Engine.eval_batch ~options real batch)
      in
      let parallel = { default with Engine.parallel = true; chunk_threshold = 2 } in
      pushed && ties && matches default && on_four_domains (fun () -> matches parallel))

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

(* ---- key shapes ----

   A 3-relation tree whose join and group keys mix every shape a view
   key or a grouped entry can take. R(a, k1, k2, g, m) joins D(a, f, h, n)
   on [a] and E(k1, k2, t, w) on (k1, k2):
   - [a] is a boxed column of ints (negative ones among them), strings
     and floats (0.0 in R and -0.0 in D, which join), so one arity-1 key
     packs in some rows and not in others;
   - (k1, k2) is an arity-2 key whose k1 is sometimes negative and k2
     sometimes >= 2^31, neither of which packs in a 31-bit field;
   - the group columns are g (ints from -20 to 19: the root cell of
     count|g, and each cell of the R->D view grouped by g, pass the 16
     entries a chain is scanned for), f (floats, 0.0 and -0.0 among
     them), h (ints), t (strings) and w (floats), grouped alone, in
     pairs across relations, and six at once at D, which merges a
     five-field key from R's side: more fields than D has columns.
   E holds more than 4,096 distinct (k1, k2) keys, so the views between R
   and E span several blocks and regrow their indexes. Measures are on the
   dyadic lattice (multiples of 1/16), so every sum is exact and the engine
   must match flat evaluation bit for bit, groups in value order. *)

let key_shapes_db rng =
  let big = 1 lsl 31 in
  let pick l = List.nth l (Util.Prng.int rng (List.length l)) in
  let dyadic () = flt (float_of_int (Util.Prng.int rng 64 - 32) /. 16.0) in
  let n_e = 4100 + Util.Prng.int rng 400 in
  (* the k-th (k1, k2) key; distinct for distinct k *)
  let e_key k =
    ( int (if k mod 7 = 0 then -(k + 1) else k),
      int (if k mod 5 = 0 then big + k else k mod 13) )
  in
  let a_values =
    [ int (-3); int (-1); int 0; int 2; Value.Str "p"; Value.Str "q"; flt 0.0; flt 1.5 ]
  in
  let r =
    Relation.of_list "R"
      (Schema.make
         [ ("a", Value.TStr); ("k1", Value.TInt); ("k2", Value.TInt);
           ("g", Value.TInt); ("m", Value.TFloat) ])
      (List.init (4500 + Util.Prng.int rng 1000) (fun _ ->
           (* a few keys E does not hold *)
           let k1, k2 = e_key (Util.Prng.int rng (n_e + 50)) in
           [| pick a_values; k1; k2; int (Util.Prng.int rng 40 - 20); dyadic () |]))
  in
  let d =
    Relation.of_list "D"
      (Schema.make
         [ ("a", Value.TStr); ("f", Value.TFloat); ("h", Value.TInt); ("n", Value.TFloat) ])
      (List.init (40 + Util.Prng.int rng 30) (fun _ ->
           let a = match pick a_values with Value.Float 0.0 -> flt (-0.0) | v -> v in
           [| a; pick [ flt 0.0; flt (-0.0); flt 0.5; flt (-2.0); flt 3.25 ];
              int (Util.Prng.int rng 30 - 5); dyadic () |]))
  in
  let e =
    Relation.of_list "E"
      (Schema.make
         [ ("k1", Value.TInt); ("k2", Value.TInt); ("t", Value.TStr); ("w", Value.TFloat) ])
      (List.init n_e (fun k ->
           let k1, k2 = e_key k in
           [| k1; k2; Value.Str (pick [ "x"; "y"; "z"; "w" ]); dyadic () |]))
  in
  Database.create "key-shapes" [ r; d; e ]

let key_shapes_batch =
  let agg id terms group_by = Spec.make ~id ~terms ~group_by () in
  {
    Batch.name = "key-shapes";
    aggregates =
      [
        Spec.count ~id:"n";
        agg "count|g" [] [ "g" ];
        agg "sum(m)|a" [ ("m", 1) ] [ "a" ];
        agg "sum(n)|f" [ ("n", 1) ] [ "f" ];
        agg "count|t" [] [ "t" ];
        agg "count|k1,k2" [] [ "k1"; "k2" ];
        agg "sum(m*w)|g,t" [ ("m", 1); ("w", 1) ] [ "g"; "t" ];
        agg "sum(n)|h,g" [ ("n", 1) ] [ "h"; "g" ];
        agg "sum(m)|f,g" [ ("m", 1) ] [ "f"; "g" ];
        agg "count|g,h" [] [ "g"; "h" ];
        agg "sum(w^2)|a,t" [ ("w", 2) ] [ "a"; "t" ];
        agg "count|f,g,k1,k2,t,w" [] [ "f"; "g"; "k1"; "k2"; "t"; "w" ];
      ];
  }

let key_shapes_match_flat (desc, options) =
  QCheck2.Test.make ~count:4
    ~name:(Printf.sprintf "engine = flat bitwise: mixed key shapes, lattice data (%s)" desc)
    QCheck2.Gen.int
    (fun seed ->
      let db = key_shapes_db (Util.Prng.create seed) in
      check_vs_flat ~options db key_shapes_batch)

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

(* The cache is bounded: past [cache_capacity] distinct batches it evicts
   the least recently used plan, and the plan just used stays cached. *)
let cache_is_bounded () =
  let rng = Util.Prng.create 5 in
  let db = random_star rng 20 3 in
  let batch i =
    {
      Batch.name = Printf.sprintf "threshold %d" i;
      aggregates =
        [
          Spec.make ~filter:(Predicate.Ge ("m1", flt (float_of_int i))) ~id:"n" ~terms:[]
            ~group_by:[] ();
        ];
    }
  in
  let cap = Cengine.cache_capacity in
  Obs.reset ();
  Obs.with_enabled true (fun () ->
      for i = 0 to (2 * cap) - 1 do
        ignore (Cengine.eval_batch db (batch i))
      done;
      Alcotest.(check bool) "at most the cap" true (Cengine.cache_size () <= cap);
      Alcotest.(check bool) "evictions counted" true
        (Obs.counter_value_by_name "lmfao.compile.cache_evictions" >= cap);
      let hits0 = Obs.counter_value_by_name "lmfao.compile.cache_hits" in
      ignore (Cengine.eval_batch db (batch ((2 * cap) - 1)));
      Alcotest.(check int) "the most recent batch still hits" (hits0 + 1)
        (Obs.counter_value_by_name "lmfao.compile.cache_hits");
      (* an old batch was evicted and compiles again *)
      let plans0 = Obs.counter_value_by_name "lmfao.compile.plans" in
      ignore (Cengine.eval_batch db (batch 0));
      Alcotest.(check int) "the oldest batch was evicted" (plans0 + 1)
        (Obs.counter_value_by_name "lmfao.compile.plans"));
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

(* Grouped roots depend on cardinalities, and the plan signature holds
   the roots, so a stream that moves only the fact table's size must not
   recompile: Inventory is the largest relation throughout, so it never
   becomes the smallest holder of any aggregate. Retailer at scale 0.05
   loaded into a Serve less 320 facts, then 10 rounds of 32 fact inserts;
   after each, the covariance batch with categoricals over the snapshot
   finds the plan compiled before the first round, which still answers
   as a fresh evaluation does. *)
let plan_reused_as_facts_stream () =
  let db = Datagen.Retailer.generate ~scale:0.05 ~seed:1 () in
  let fact = Relation.name (Datagen.Stream_gen.fact_relation db) in
  let stream = Datagen.Stream_gen.inserts_of_database ~seed:1 db in
  let dims, facts = List.partition (fun (u : Fivm.Delta.update) -> u.relation <> fact) stream in
  let facts = Array.of_list facts in
  let loaded = Array.length facts - 320 in
  let srv = Serve.create Fivm.Maintainer.F_ivm db ~features:Datagen.Retailer.ivm_features in
  Serve.apply_deltas srv (dims @ Array.to_list (Array.sub facts 0 loaded));
  let batch = Batch.covariance Datagen.Retailer.features in
  let cardinality snap = Relation.cardinality (Database.relation snap fact) in
  let snap = Serve.snapshot srv in
  let compiled = Cengine.find_or_compile snap batch in
  let sizes = ref [ cardinality snap ] in
  for round = 1 to 10 do
    Serve.apply_deltas srv (Array.to_list (Array.sub facts (loaded + (32 * (round - 1))) 32));
    let snap = Serve.snapshot srv in
    sizes := cardinality snap :: !sizes;
    Alcotest.(check bool) (Printf.sprintf "round %d reuses the plan" round) true
      (Cengine.find_or_compile snap batch == compiled)
  done;
  Alcotest.(check int) "Inventory grew every round" 11
    (List.length (List.sort_uniq compare !sizes));
  let snap = Serve.snapshot srv in
  Alcotest.(check bool) "reused plan = fresh evaluation" true
    (Spec.keyed_bits_equal (Engine.eval_batch snap batch) (Cengine.run compiled snap))

(* Two thresholds that agree to six significant digits: at retailer scale
   0.05, seed 1, [prize >= 32.629302406863651] holds for 4004 join rows
   and [prize >= 32.629302472122255] for 1290. Batches that differ only
   there are different batches, and so are batches that differ only in
   their ids: neither may reuse the other's plan. *)
let close_thresholds_and_ids () =
  let db = Datagen.Retailer.generate ~scale:0.05 ~seed:1 () in
  let batch id t =
    {
      Batch.name = "threshold";
      aggregates =
        [ Spec.make ~filter:(Predicate.Ge ("prize", flt t)) ~id ~terms:[] ~group_by:[] () ];
    }
  in
  let count b = Spec.scalar_result (List.assoc (List.hd b.Batch.aggregates).Spec.id (Cengine.eval_batch db b)) in
  Alcotest.(check (float 0.0)) "lower threshold" 4004.0 (count (batch "n" 32.629302406863651));
  Alcotest.(check (float 0.0)) "higher threshold, after the lower one" 1290.0
    (count (batch "n" 32.629302472122255));
  Alcotest.(check (list string)) "another id, after the first" [ "m" ]
    (List.map fst (Cengine.eval_batch db (batch "m" 32.629302472122255)));
  let c = Cengine.compile db (batch "n" 32.629302472122255) in
  Alcotest.(check bool) "a plan is not reusable for other ids" false
    (Cengine.reusable c db (batch "m" 32.629302472122255));
  Alcotest.(check bool) "nor for a close threshold" false
    (Cengine.reusable c db (batch "n" 32.629302406863651));
  Alcotest.(check bool) "but is for its own batch" true
    (Cengine.reusable c db (batch "n" 32.629302472122255))

(* ---- specialization fallbacks ----

   Only term columns that are boxed count: grouped slots run on the one
   grouped path. *)

let fallbacks_count_boxed () =
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

(* A boxed term column is read lazily, row by row: F's term column x
   holds ints and, only in rows whose key D does not hold, strings. Every
   aggregate over x roots at F, so only F rows that found a partner in D
   reach a kernel, and [Value.to_float] never sees a string. *)
let boxed_terms_lazy () =
  let f =
    Relation.of_list "F"
      (Schema.make [ ("a", Value.TInt); ("x", Value.TInt); ("g", Value.TInt) ])
      (List.init 40 (fun i ->
           if i mod 4 = 3 then [| int (100 + i); Value.Str "n/a"; int (i mod 3) |]
           else [| int (i mod 5); int (i - 7); int (i mod 3) |]))
  in
  let d =
    Relation.of_list "D"
      (Schema.make [ ("a", Value.TInt); ("u", Value.TInt) ])
      (List.init 10 (fun i -> [| int (i mod 5); int (i mod 2) |]))
  in
  let db = Database.create "boxed-terms" [ f; d ] in
  let batch =
    {
      Batch.name = "boxed-terms";
      aggregates =
        [
          Spec.count ~id:"n";
          Spec.make ~id:"sum(x)" ~terms:[ ("x", 1) ] ~group_by:[] ();
          Spec.make ~id:"sum(x^2)" ~terms:[ ("x", 2) ] ~group_by:[] ();
          Spec.make ~id:"sum(x)|g" ~terms:[ ("x", 1) ] ~group_by:[ "g" ] ();
          Spec.make ~id:"count|u" ~terms:[] ~group_by:[ "u" ] ();
        ];
    }
  in
  Alcotest.(check bool) "x is boxed" true
    (match Column.data (Relation.columns f).(1) with Column.Boxed _ -> true | _ -> false);
  Obs.reset ();
  let ok = Obs.with_enabled true (fun () -> check_vs_flat ~options:default db batch) in
  Alcotest.(check bool) "no raise, = flat bitwise" true ok;
  Alcotest.(check bool) "boxed term column counted" true
    (Obs.counter_value_by_name "lmfao.compile.fallbacks" > 0);
  Obs.reset ()

(* ---- the planner's filter hoisting ----

   [Plan.group] hoists the conjuncts every slot of a view tests into the
   view's [v_scan_filter]. Pushing them back into each slot's
   [local_filter] gives the unhoisted plan, which must answer bit for bit
   as the hoisted one does. Half the batches give every aggregate one
   shared conjunct, so every view over its attribute's owner hoists it. *)

let unhoisted (plan : Lmfao.Plan.grouped) =
  let push (v : Lmfao.Plan.view) =
    let v_slots =
      Array.map
        (fun (s : Lmfao.Plan.slot) ->
          { s with local_filter = v.v_scan_filter @ s.local_filter })
        v.v_slots
    in
    { v with v_scan_filter = []; v_slots }
  in
  { plan with views = Array.map push plan.views }

let hoisting_preserves_results =
  QCheck2.Test.make ~count:30
    ~name:"hoisted scan filters preserve execution bitwise"
    QCheck2.Gen.(triple (int_range 0 25) (int_range 1 5) int)
    (fun (card, domain, seed) ->
      let rng = Util.Prng.create seed in
      let db = random_star rng card domain in
      let batch = random_batch rng in
      let shared =
        if Util.Prng.int rng 2 = 0 then None
        else
          Some
            (match Util.Prng.int rng 3 with
            | 0 -> Predicate.Ge ("m2", flt (float_of_int (Util.Prng.int rng 10)))
            | 1 -> Predicate.Lt ("u", flt (float_of_int (Util.Prng.int rng 10)))
            | _ -> Predicate.Eq ("y", int (Util.Prng.int rng 3)))
      in
      let batch =
        match shared with
        | None -> batch
        | Some c ->
            {
              batch with
              Batch.aggregates =
                List.map
                  (fun (s : Spec.t) -> { s with filter = Predicate.And (c, s.filter) })
                  batch.Batch.aggregates;
            }
      in
      let plan, _ = Engine.compile ~options:default db batch in
      let hoisted = Array.exists (fun v -> v.Lmfao.Plan.v_scan_filter <> []) plan.views in
      if shared <> None && not hoisted then Format.eprintf "NOTHING HOISTED@.";
      let ok =
        Spec.keyed_bits_equal
          (Engine.run ~options:default db plan)
          (Engine.run ~options:default db (unhoisted plan))
      in
      if not ok then Format.eprintf "HOISTING changed results@.";
      ok && (shared = None || hoisted))

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
      ( "view-groups",
        List.map
          (fun o -> qcheck (view_groups_match_flat o))
          [
            ("default", default);
            ("parallel", { default with Engine.parallel = true; chunk_threshold = 2 });
          ] );
      ("families", [ qcheck families_match_flat ]);
      ("pushed keys", [ qcheck pushed_group_keys ]);
      ( "datagen",
        [ Alcotest.test_case "all schemas = flat" `Quick datagen_schemas ] );
      ( "keys",
        List.map
          (fun o -> qcheck (key_shapes_match_flat o))
          [
            ("default", default);
            ("parallel", { default with Engine.parallel = true; chunk_threshold = 64 });
          ] );
      ("cyclic", [ Alcotest.test_case "WCOJ fallback" `Quick cyclic_fallback ]);
      ( "cache",
        [
          Alcotest.test_case "fingerprint cache hits and reuse" `Quick
            plan_cache_behaviour;
          Alcotest.test_case "bounded, least recently used evicted" `Quick
            cache_is_bounded;
          Alcotest.test_case "signature revalidates roots" `Quick
            cache_revalidates_roots;
          Alcotest.test_case "close thresholds and other ids miss" `Quick
            close_thresholds_and_ids;
          Alcotest.test_case "plan reused while facts stream in" `Quick
            plan_reused_as_facts_stream;
        ] );
      ( "fallbacks",
        [
          Alcotest.test_case "count boxed term columns" `Quick fallbacks_count_boxed;
          Alcotest.test_case "boxed term column read lazily" `Quick boxed_terms_lazy;
        ] );
      ("hoisting", [ qcheck hoisting_preserves_results ]);
    ]
