(* Tests for the relational substrate: operator semantics against naive
   reference implementations on random relations, GYO acyclicity, and join
   trees. *)

open Relational

let int n = Value.Int n

let schema_ab = Schema.make [ ("a", Value.TInt); ("b", Value.TInt) ]
let schema_bc = Schema.make [ ("b", Value.TInt); ("c", Value.TInt) ]

let rel_of name schema rows =
  Relation.of_list name schema (List.map (fun r -> Array.map (fun x -> int x) (Array.of_list r)) rows)

(* random relation over int attrs with small domain *)
let random_rel rng name attrs card domain =
  let schema = Schema.make (List.map (fun a -> (a, Value.TInt)) attrs) in
  let rel = Relation.create name schema in
  for _ = 1 to card do
    Relation.append rel
      (Array.of_list (List.map (fun _ -> int (Util.Prng.int rng domain)) attrs))
  done;
  rel

let rows_as_sorted_lists rel =
  List.sort compare
    (List.map (fun t -> Array.to_list t) (Relation.to_list rel))

(* --- schema --- *)

let test_schema_positions () =
  let s = Schema.make [ ("x", Value.TInt); ("y", Value.TFloat); ("z", Value.TStr) ] in
  Alcotest.(check int) "x at 0" 0 (Schema.position s "x");
  Alcotest.(check int) "z at 2" 2 (Schema.position s "z");
  Alcotest.(check bool) "mem" true (Schema.mem s "y");
  Alcotest.(check bool) "not mem" false (Schema.mem s "w");
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Schema.of_list: duplicate attribute x") (fun () ->
      ignore (Schema.make [ ("x", Value.TInt); ("x", Value.TInt) ]))

let test_schema_join () =
  let j = Schema.join schema_ab schema_bc in
  Alcotest.(check (list string)) "join schema" [ "a"; "b"; "c" ] (Schema.names j);
  Alcotest.(check (list string)) "common" [ "b" ] (Schema.common schema_ab schema_bc)

(* --- value ordering --- *)

let value_compare_total =
  QCheck2.Test.make ~count:200 ~name:"value compare is a total order"
    QCheck2.Gen.(
      let value =
        oneof
          [
            map (fun n -> Value.Int n) small_int;
            map (fun x -> Value.Float x) (float_bound_inclusive 100.0);
            map (fun s -> Value.Str s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 4));
            return Value.Null;
          ]
      in
      triple value value value)
    (fun (a, b, c) ->
      let sgn x = compare x 0 in
      (* antisymmetry *)
      sgn (Value.compare a b) = -sgn (Value.compare b a)
      (* transitivity of <= *)
      && (not (Value.compare a b <= 0 && Value.compare b c <= 0)
         || Value.compare a c <= 0))

(* --- select / project --- *)

let test_select () =
  let r = rel_of "R" schema_ab [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ] in
  let got = Ops.select (Predicate.Ge ("a", int 3)) r in
  Alcotest.(check int) "two rows" 2 (Relation.cardinality got)

let test_additive_ineq_predicate () =
  let r = rel_of "R" schema_ab [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ] in
  (* a + 2b > 10: (1,2)->5 no, (3,4)->11 yes, (5,6)->17 yes *)
  let got = Ops.select (Predicate.Additive_ineq ([ ("a", 1.0); ("b", 2.0) ], 10.0)) r in
  Alcotest.(check int) "two rows" 2 (Relation.cardinality got)

let test_project_bag () =
  let r = rel_of "R" schema_ab [ [ 1; 2 ]; [ 1; 3 ]; [ 1; 2 ] ] in
  let p = Ops.project r [ "a" ] in
  Alcotest.(check int) "bag keeps dups" 3 (Relation.cardinality p);
  let d = Ops.project_distinct r [ "a" ] in
  Alcotest.(check int) "distinct" 1 (Relation.cardinality d)

(* --- joins vs nested-loop reference --- *)

let join_matches_reference =
  QCheck2.Test.make ~count:60 ~name:"hash join = nested-loop join"
    QCheck2.Gen.(triple (int_range 0 25) (int_range 1 5) int)
    (fun (card, domain, seed) ->
      let rng = Util.Prng.create seed in
      let a = random_rel rng "A" [ "a"; "b" ] card domain in
      let b = random_rel rng "B" [ "b"; "c" ] card domain in
      let fast = Ops.natural_join a b in
      (* reference *)
      let refr = Relation.create "ref" (Schema.join (Relation.schema a) (Relation.schema b)) in
      Relation.iter
        (fun ta ->
          Relation.iter
            (fun tb ->
              if Value.equal ta.(1) tb.(0) then
                Relation.append refr [| ta.(0); ta.(1); tb.(1) |])
            b)
        a;
      rows_as_sorted_lists fast = rows_as_sorted_lists refr)

let test_join_cartesian_when_disjoint () =
  let a = rel_of "A" (Schema.make [ ("a", Value.TInt) ]) [ [ 1 ]; [ 2 ] ] in
  let b = rel_of "B" (Schema.make [ ("b", Value.TInt) ]) [ [ 10 ]; [ 20 ]; [ 30 ] ] in
  Alcotest.(check int) "cartesian 2x3" 6 (Relation.cardinality (Ops.natural_join a b))

let test_semijoin () =
  let a = rel_of "A" schema_ab [ [ 1; 1 ]; [ 2; 2 ]; [ 3; 3 ] ] in
  let b = rel_of "B" schema_bc [ [ 1; 9 ]; [ 3; 9 ] ] in
  let s = Ops.semijoin a b in
  Alcotest.(check int) "two survivors" 2 (Relation.cardinality s)

(* --- columnar path vs boxed-tuple oracle --- *)

(* The typed-column operators must agree, as bags of rows, with naive
   oracles computed over boxed tuples pulled out via [Relation.to_list] —
   the edge representation the columnar layer is supposed to be
   indistinguishable from. *)

let boxed_rows rel = List.map Array.to_list (Relation.to_list rel)

let cartesian_matches_boxed_oracle =
  QCheck2.Test.make ~count:40
    ~name:"disjoint natural join = boxed cartesian oracle"
    QCheck2.Gen.(triple (int_range 0 12) (int_range 0 12) int)
    (fun (na, nb, seed) ->
      let rng = Util.Prng.create seed in
      let a = random_rel rng "A" [ "a" ] na 5 in
      let b = random_rel rng "B" [ "b"; "c" ] nb 5 in
      let fast = Ops.natural_join a b in
      let oracle =
        List.concat_map
          (fun ta ->
            List.map (fun tb -> Array.to_list (Array.append ta tb)) (Relation.to_list b))
          (Relation.to_list a)
      in
      List.sort compare (boxed_rows fast) = List.sort compare oracle)

let distinct_matches_boxed_oracle =
  QCheck2.Test.make ~count:40 ~name:"distinct on bags = boxed sort_uniq oracle"
    QCheck2.Gen.(triple (int_range 0 40) (int_range 1 3) int)
    (fun (card, domain, seed) ->
      let rng = Util.Prng.create seed in
      (* small domain so duplicate rows are common *)
      let r = random_rel rng "R" [ "a"; "b" ] card domain in
      let d = Ops.distinct r in
      List.sort compare (boxed_rows d)
      = List.sort_uniq compare (boxed_rows r))

let projection_matches_boxed_oracle =
  QCheck2.Test.make ~count:40
    ~name:"bag projection keeps duplicates = boxed per-row oracle"
    QCheck2.Gen.(triple (int_range 0 40) (int_range 1 3) int)
    (fun (card, domain, seed) ->
      let rng = Util.Prng.create seed in
      let r = random_rel rng "R" [ "a"; "b"; "c" ] card domain in
      let p = Ops.project r [ "c"; "a" ] in
      let pos_c = Schema.position (Relation.schema r) "c" in
      let pos_a = Schema.position (Relation.schema r) "a" in
      let oracle = List.map (fun t -> [ t.(pos_c); t.(pos_a) ]) (Relation.to_list r) in
      Relation.cardinality p = Relation.cardinality r
      && List.sort compare (boxed_rows p) = List.sort compare oracle)

(* --- group_by vs reference --- *)

let groupby_matches_reference =
  QCheck2.Test.make ~count:60 ~name:"group_by sums = manual fold"
    QCheck2.Gen.(triple (int_range 0 40) (int_range 1 4) int)
    (fun (card, domain, seed) ->
      let rng = Util.Prng.create seed in
      let r = random_rel rng "R" [ "g"; "v" ] card domain in
      let schema = Relation.schema r in
      let got =
        Ops.group_by r ~key:[ "g" ]
          ~aggs:[ ("s", Ops.sum_of_attr schema "v"); ("n", Ops.Count) ]
      in
      (* reference via assoc list *)
      let table = Hashtbl.create 8 in
      Relation.iter
        (fun t ->
          let g = Value.to_int t.(0) and v = Value.to_float t.(1) in
          let s0, n0 = Option.value ~default:(0.0, 0) (Hashtbl.find_opt table g) in
          Hashtbl.replace table g (s0 +. v, n0 + 1))
        r;
      Relation.cardinality got = Hashtbl.length table
      && Relation.fold
           (fun ok t ->
             let g = Value.to_int t.(0) in
             let s = Value.to_float t.(1) and n = Value.to_float t.(2) in
             match Hashtbl.find_opt table g with
             | Some (s0, n0) ->
                 ok && Float.abs (s -. s0) < 1e-9 && int_of_float n = n0
             | None -> false)
           true got)

let test_aggregate_scalar () =
  let r = rel_of "R" schema_ab [ [ 1; 10 ]; [ 2; 20 ]; [ 3; 30 ] ] in
  let schema = Relation.schema r in
  match
    Ops.aggregate r
      [
        Ops.Count;
        Ops.sum_of_attr schema "b";
        Ops.Min (fun t -> Value.to_float t.(1));
        Ops.Max (fun t -> Value.to_float t.(1));
        Ops.Avg (fun t -> Value.to_float t.(1));
      ]
  with
  | [ n; s; mn; mx; avg ] ->
      Alcotest.(check (float 1e-9)) "count" 3.0 n;
      Alcotest.(check (float 1e-9)) "sum" 60.0 s;
      Alcotest.(check (float 1e-9)) "min" 10.0 mn;
      Alcotest.(check (float 1e-9)) "max" 30.0 mx;
      Alcotest.(check (float 1e-9)) "avg" 20.0 avg
  | _ -> Alcotest.fail "wrong arity"

(* --- hypergraph / GYO --- *)

let test_gyo_acyclic_chain () =
  let hg =
    [
      Hypergraph.edge "R1" [ "a"; "b" ];
      Hypergraph.edge "R2" [ "b"; "c" ];
      Hypergraph.edge "R3" [ "c"; "d" ];
    ]
  in
  Alcotest.(check bool) "chain acyclic" true (Hypergraph.is_acyclic hg)

let test_gyo_triangle_cyclic () =
  let hg =
    [
      Hypergraph.edge "R1" [ "a"; "b" ];
      Hypergraph.edge "R2" [ "b"; "c" ];
      Hypergraph.edge "R3" [ "a"; "c" ];
    ]
  in
  Alcotest.(check bool) "triangle cyclic" false (Hypergraph.is_acyclic hg)

let test_gyo_star_acyclic () =
  let hg =
    [
      Hypergraph.edge "F" [ "a"; "b"; "c" ];
      Hypergraph.edge "D1" [ "a"; "x" ];
      Hypergraph.edge "D2" [ "b"; "y" ];
      Hypergraph.edge "D3" [ "c"; "z" ];
    ]
  in
  Alcotest.(check bool) "star acyclic" true (Hypergraph.is_acyclic hg)

(* Join tree: running-intersection property — for each attribute, the nodes
   containing it form a connected subtree. *)
let running_intersection jt root_name =
  let node = Join_tree.tree ~root:root_name jt in
  let attr_nodes = Hashtbl.create 16 in
  let rec collect (n : Join_tree.node) =
    List.iter
      (fun a ->
        let cur = Option.value ~default:[] (Hashtbl.find_opt attr_nodes a) in
        Hashtbl.replace attr_nodes a (Relation.name n.rel :: cur))
      (Schema.names (Relation.schema n.rel));
    List.iter collect n.children
  in
  collect node;
  (* for each attr, check connectivity by walking the tree and counting the
     maximal connected runs containing the attr *)
  let ok = ref true in
  Hashtbl.iter
    (fun attr _ ->
      (* count connected components of nodes containing attr *)
      let rec components (n : Join_tree.node) inside =
        let here = Schema.mem (Relation.schema n.rel) attr in
        let new_comp = if here && not inside then 1 else 0 in
        List.fold_left
          (fun acc c -> acc + components c here)
          new_comp n.children
      in
      if components node false > 1 then ok := false)
    attr_nodes;
  !ok

let test_join_tree_running_intersection () =
  let rels =
    [
      rel_of "F" (Schema.make [ ("a", Value.TInt); ("b", Value.TInt); ("c", Value.TInt) ]) [];
      rel_of "D1" (Schema.make [ ("a", Value.TInt); ("x", Value.TInt) ]) [];
      rel_of "D2" (Schema.make [ ("b", Value.TInt); ("y", Value.TInt) ]) [];
      rel_of "D3" (Schema.make [ ("c", Value.TInt); ("z", Value.TInt) ]) [];
    ]
  in
  let jt = Join_tree.build rels in
  List.iter
    (fun root ->
      Alcotest.(check bool)
        (Printf.sprintf "running intersection from %s" root)
        true
        (running_intersection jt root))
    (Join_tree.node_names jt)

let test_join_tree_cyclic_raises () =
  let rels =
    [
      rel_of "R1" schema_ab [];
      rel_of "R2" schema_bc [];
      rel_of "R3" (Schema.make [ ("a", Value.TInt); ("c", Value.TInt) ]) [];
    ]
  in
  Alcotest.check_raises "cyclic" Join_tree.Cyclic (fun () ->
      ignore (Join_tree.build rels))

(* --- database --- *)

let test_database_join () =
  let f =
    rel_of "F" (Schema.make [ ("a", Value.TInt); ("b", Value.TInt) ])
      [ [ 1; 10 ]; [ 2; 20 ] ]
  in
  let d =
    rel_of "D" (Schema.make [ ("a", Value.TInt); ("x", Value.TInt) ])
      [ [ 1; 100 ]; [ 1; 101 ]; [ 2; 200 ] ]
  in
  let db = Database.create "toy" [ f; d ] in
  let join = Database.materialise_join db in
  Alcotest.(check int) "join size" 3 (Relation.cardinality join);
  Alcotest.(check int) "total card" 5 (Database.total_cardinality db)

(* --- clustering at load --- *)

let rows rel = List.map Array.to_list (Relation.to_list rel)

(* A random tree-shaped schema of [n] relations R0..R(n-1): relation i > 0
   hangs under a random earlier relation through one or two edge
   attributes that only the two of them hold, so the join tree is the
   generating tree. Attributes are shuffled within each schema; values are
   drawn from [domain] (small, so keys tie; or wide, past the counting
   limit); cardinalities are 0 to 20. Returns the relations with each
   one's parent and edge attributes. *)
let random_tree_db rng n domain =
  let parent = Array.init n (fun i -> if i = 0 then -1 else Util.Prng.int rng i) in
  let edge =
    Array.init n (fun i ->
        if i = 0 then [] else List.init (1 + Util.Prng.int rng 2) (Printf.sprintf "e%d_%d" i))
  in
  let rels =
    Array.init n (fun i ->
        let children = List.filter (fun c -> parent.(c) = i) (List.init n Fun.id) in
        let names =
          Array.of_list (edge.(i) @ List.concat_map (fun c -> edge.(c)) children @ [ Printf.sprintf "v%d" i ])
        in
        Util.Prng.shuffle_in_place rng names;
        random_rel rng (Printf.sprintf "R%d" i) (Array.to_list names) (Util.Prng.int rng 21) domain)
  in
  (rels, parent, edge)

(* The oracle: each relation with at least two rows, stably sorted on its
   edge attributes (in its own attribute order) with its largest
   neighbour, ties to the first by name. *)
let expected_clustering (rels : Relation.t array) parent edge =
  let n = Array.length rels in
  Array.mapi
    (fun i r ->
      let neighbours =
        (if parent.(i) >= 0 then [ (parent.(i), edge.(i)) ] else [])
        @ List.filter_map
            (fun c -> if parent.(c) = i then Some (c, edge.(c)) else None)
            (List.init n Fun.id)
      in
      let largest =
        List.fold_left
          (fun acc (j, e) ->
            match acc with
            | Some (j', _) when Relation.cardinality rels.(j') >= Relation.cardinality rels.(j) ->
                acc
            | _ -> Some (j, e))
          None
          (List.sort compare neighbours)
      in
      let rs = rows r in
      match largest with
      | Some (_, e) when Relation.cardinality r >= 2 ->
          let positions =
            List.filter_map
              (fun a -> if List.mem a e then Some (Schema.position (Relation.schema r) a) else None)
              (Schema.names (Relation.schema r))
          in
          let key row = List.map (fun p -> List.nth row p) positions in
          List.stable_sort (fun a b -> compare (key a) (key b)) rs
      | _ -> rs)
    rels

let clustering_matches_oracle =
  QCheck2.Test.make ~count:200
    ~name:"create clusters each relation stably on its key with its largest neighbour"
    QCheck2.Gen.(triple (int_range 1 6) bool int)
    (fun (n, wide, seed) ->
      let rng = Util.Prng.create seed in
      let rels, parent, edge = random_tree_db rng n (if wide then 1 lsl 40 else 3) in
      let before = Array.map rows rels in
      let expected = expected_clustering rels parent edge in
      Obs.reset ();
      let db = Obs.with_enabled true (fun () -> Database.create "tree" (Array.to_list rels)) in
      let moved = Obs.counter_value_by_name "relational.clustered_rows" in
      let after = Array.map rows rels in
      let ok =
        after = expected
        && Array.for_all2 (fun a b -> List.sort compare a = List.sort compare b) before after
        && moved
           = Array.fold_left ( + ) 0
               (Array.mapi
                  (fun i r -> if before.(i) = after.(i) then 0 else Relation.cardinality r)
                  rels)
      in
      (* a second create over the same relations moves no row *)
      ignore (Obs.with_enabled true (fun () -> Database.create "again" (Database.relations db)));
      let ok =
        ok
        && Obs.counter_value_by_name "relational.clustered_rows" = moved
        && Array.map rows rels = after
      in
      Obs.reset ();
      ok)

let test_clustering_skips () =
  let unsorted name attrs = rel_of name (Schema.make (List.map (fun a -> (a, Value.TInt)) attrs)) in
  let untouched what rels =
    let before = List.map rows rels in
    Obs.reset ();
    ignore (Obs.with_enabled true (fun () -> Database.create what rels));
    Alcotest.(check bool) (what ^ ": rows untouched") true (List.map rows rels = before);
    Alcotest.(check int) (what ^ ": nothing clustered") 0
      (Obs.counter_value_by_name "relational.clustered_rows");
    Obs.reset ()
  in
  untouched "cyclic"
    [
      unsorted "R" [ "a"; "b" ] [ [ 2; 1 ]; [ 1; 2 ]; [ 0; 3 ] ];
      unsorted "S" [ "b"; "c" ] [ [ 3; 1 ]; [ 1; 0 ]; [ 2; 2 ] ];
      unsorted "T" [ "c"; "a" ] [ [ 2; 0 ]; [ 0; 2 ]; [ 1; 1 ] ];
    ];
  untouched "single" [ unsorted "R" [ "a"; "b" ] [ [ 2; 1 ]; [ 1; 2 ]; [ 0; 3 ] ] ];
  untouched "empty" [ unsorted "R" [ "a"; "b" ] []; unsorted "S" [ "a"; "c" ] [] ];
  (* key columns that are not Ints: a float key, and an int key promoted
     to boxed values by a Null *)
  let fl =
    Relation.of_list "F"
      (Schema.make [ ("k", Value.TFloat); ("x", Value.TInt) ])
      [ [| Value.Float 2.0; int 0 |]; [| Value.Float 1.0; int 1 |] ]
  and fd =
    Relation.of_list "D"
      (Schema.make [ ("k", Value.TFloat); ("y", Value.TInt) ])
      [ [| Value.Float 1.0; int 5 |]; [| Value.Float 0.0; int 6 |]; [| Value.Float 3.0; int 4 |] ]
  in
  untouched "float keys" [ fl; fd ];
  let boxed = unsorted "B" [ "a"; "x" ] [ [ 2; 0 ]; [ 1; 1 ] ] in
  Relation.append boxed [| Value.Null; int 2 |];
  untouched "boxed keys" [ boxed; unsorted "C" [ "a"; "y" ] [ [ 0; 1 ]; [ 1; 0 ]; [ 2; 2 ]; [ 3; 3 ] ] ];
  (* and a relation appended to after create keeps its order *)
  let r = unsorted "R" [ "a"; "b" ] [] and s = unsorted "S" [ "a"; "c" ] [] in
  ignore (Database.create "late" [ r; s ]);
  List.iter (fun x -> Relation.append r [| int x; int 0 |]) [ 2; 0; 1 ];
  Alcotest.(check bool) "filled after create: insertion order" true
    (rows r = [ [ int 2; int 0 ]; [ int 0; int 0 ]; [ int 1; int 0 ] ])

(* Compiled predicates agree with interpreted evaluation whatever the
   column's representation: an int column and a float column, each also
   as a Boxed copy, with NaN and ±0.0 among the float cells and the
   constants, and Int and Float constants against both. *)
let predicate_compile_cols_matches_eval =
  let floats = [| nan; -0.0; 0.0; 1.0; 2.0; -1.5; infinity; neg_infinity |] in
  let schema = Schema.make [ ("x", Value.TFloat) ] in
  QCheck2.Test.make ~count:300
    ~name:"Predicate.compile_cols = Predicate.eval on Ints, Floats and Boxed columns"
    ~print:(fun (p, cells) ->
      Format.asprintf "%a over cells %s" Predicate.pp p
        (String.concat "; "
           (List.map (fun (x, n) -> Printf.sprintf "(%h, %d)" x n) cells)))
    QCheck2.Gen.(
      let float_cell = map (fun k -> floats.(k)) (int_range 0 (Array.length floats - 1)) in
      let const =
        oneof
          [
            map (fun x -> Value.Float x) float_cell;
            map (fun c -> Value.Int c) (int_range (-1) 2);
          ]
      in
      let leaf =
        oneof
          [
            map (fun c -> Predicate.Ge ("x", c)) const;
            map (fun c -> Predicate.Lt ("x", c)) const;
            map (fun c -> Predicate.Eq ("x", c)) const;
            map (fun cs -> Predicate.In ("x", cs)) (list_size (int_range 0 3) const);
            map (fun c -> Predicate.Additive_ineq ([ ("x", -2.0) ], c)) float_cell;
            return Predicate.True;
          ]
      in
      let pred =
        oneof
          [
            leaf;
            map (fun p -> Predicate.Not p) leaf;
            map2 (fun p q -> Predicate.And (p, q)) leaf leaf;
            map2 (fun p q -> Predicate.Or (p, q)) leaf leaf;
          ]
      in
      pair pred (list_size (int_range 1 8) (pair float_cell (int_range (-1) 2))))
    (fun (p, cells) ->
      let xs = Array.of_list (List.map fst cells) in
      let ns = Array.of_list (List.map snd cells) in
      List.for_all
        (fun col ->
          let keep = Predicate.compile_cols schema [| col |] p in
          List.for_all
            (fun i -> keep i = Predicate.eval schema [| Column.get col i |] p)
            (List.init (List.length cells) Fun.id))
        [
          Column.of_ints ns;
          Column.of_boxed (Array.map int ns);
          Column.of_floats xs;
          Column.of_boxed (Array.map (fun x -> Value.Float x) xs);
        ])

let test_sort_by () =
  let r = rel_of "R" schema_ab [ [ 3; 1 ]; [ 1; 2 ]; [ 2; 0 ] ] in
  let sorted = Ops.sort_by r [ "a" ] in
  Alcotest.(check (list int)) "ascending a" [ 1; 2; 3 ]
    (List.map (fun t -> Value.to_int t.(0)) (Relation.to_list sorted))

let test_union () =
  let a = rel_of "A" schema_ab [ [ 1; 2 ] ] in
  let b = rel_of "B" schema_ab [ [ 3; 4 ]; [ 1; 2 ] ] in
  let u = Ops.union a b in
  Alcotest.(check int) "bag union" 3 (Relation.cardinality u);
  let c = rel_of "C" schema_bc [ [ 1; 2 ] ] in
  Alcotest.check_raises "schema mismatch"
    (Invalid_argument "Ops.union: schema mismatch") (fun () ->
      ignore (Ops.union a c))

let test_relation_value_accounting () =
  let r = rel_of "R" schema_ab [ [ 1; 2 ]; [ 3; 4 ] ] in
  Alcotest.(check int) "value count" 4 (Relation.value_count r);
  Alcotest.(check int) "distinct" 2 (Relation.distinct_count r);
  Alcotest.(check bool) "csv bytes > 0" true (Relation.csv_size r > 0);
  (* csv round trip *)
  let rows = Relation.csv_rows r in
  let back = Relation.of_csv_rows "R" schema_ab rows in
  Alcotest.(check int) "round trip size" 2 (Relation.cardinality back);
  Alcotest.(check bool) "round trip tuples" true
    (List.for_all2 Tuple.equal (Relation.to_list r) (Relation.to_list back))

let test_append_arity_mismatch () =
  let r = Relation.create "R" schema_ab in
  Alcotest.check_raises "arity"
    (Invalid_argument "Relation.append: arity mismatch on R (3 vs 2)") (fun () ->
      Relation.append r [| int 1; int 2; int 3 |])

(* ---- Keypack shard routing ---- *)

(* Uniform keys spread evenly: no shard may receive more than twice the
   mean, for packed multi-field int keys and for boxed string keys alike. *)
let test_shard_distribution () =
  let n = 10_000 in
  let check_counts label shards counts =
    let mean = float_of_int n /. float_of_int shards in
    Array.iteri
      (fun s c ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: shard %d/%d holds %d <= 2x mean" label s shards c)
          true
          (float_of_int c <= 2.0 *. mean))
      counts
  in
  List.iter
    (fun shards ->
      let packed = Array.make shards 0 in
      let boxed = Array.make shards 0 in
      for i = 0 to n - 1 do
        let kp =
          Keypack.key_of_tuple [| 0; 1 |]
            [| Value.Int (i mod 100); Value.Int (i / 100) |]
        in
        let kb = Keypack.key_of_tuple [| 0 |] [| Value.Str (string_of_int i) |] in
        packed.(Keypack.shard_of_key ~shards kp) <-
          packed.(Keypack.shard_of_key ~shards kp) + 1;
        boxed.(Keypack.shard_of_key ~shards kb) <-
          boxed.(Keypack.shard_of_key ~shards kb) + 1
      done;
      check_counts "packed" shards packed;
      check_counts "boxed" shards boxed)
    [ 2; 3; 4; 8; 16 ];
  Alcotest.(check int) "shards=1 routes everything to 0" 0
    (Keypack.shard_of_key ~shards:1 (Keypack.P 123456789))

(* Routing is a function of the key VALUE: a key and its boxed round trip
   (unpack/key_tuple then re-pack) land on the same shard, whether the key
   packs or falls back to a boxed tuple. *)
let shard_route_roundtrip =
  QCheck2.Test.make ~count:200
    ~name:"shard routing consistent across pack/unpack round trips"
    QCheck2.Gen.(pair (int_range 1 4) int)
    (fun (arity, seed) ->
      let rng = Util.Prng.create seed in
      (* mix fields that pack (small non-negative ints) with fields that
         force the boxed fallback (negatives, strings) *)
      let field () =
        match Util.Prng.int rng 3 with
        | 0 -> Value.Int (Util.Prng.int rng 1000)
        | 1 -> Value.Int (-1 - Util.Prng.int rng 1000)
        | _ -> Value.Str (string_of_int (Util.Prng.int rng 100))
      in
      let tuple = Array.init arity (fun _ -> field ()) in
      let positions = Array.init arity Fun.id in
      let k = Keypack.key_of_tuple positions tuple in
      let k' = Keypack.key_of_tuple positions (Keypack.key_tuple arity k) in
      Keypack.key_equal k k'
      && List.for_all
           (fun shards ->
             let s = Keypack.shard_of_key ~shards k in
             s = Keypack.shard_of_key ~shards k' && s >= 0 && s < shards)
           [ 1; 2; 3; 8; 16 ])

(* The key readers — the column extractor used by base-table scans, the
   int-form [reader] and [pack], and the tuple packer used by streaming
   deltas — must agree on representation (packed vs boxed), hash and shard
   for every logical row, or a delta would route to a different shard /
   view bucket than the base load that preceded it. The int forms are [p]
   exactly where the tuple packer gives [P p] with [p <> nopack]. *)
let extractor_matches_tuple_path =
  QCheck2.Test.make ~count:200
    ~name:"column extractor and tuple packer agree on key, hash and shard"
    QCheck2.Gen.(triple (int_range 1 3) (int_range 1 40) int)
    (fun (key_arity, rows, seed) ->
      let rng = Util.Prng.create seed in
      let w = Keypack.field_width key_arity in
      (* per-column value class: packable ints, ints past the per-field
         budget (box multi-attribute keys), strings (always boxed), floats,
         negative ints, the field bounds 2^w - 1 and 2^w with [min_int]
         (2^62 wraps to it at arity 1), or ints beside nulls in one column *)
      let col_class = Array.init key_arity (fun _ -> Util.Prng.int rng 7) in
      let field c =
        match col_class.(c) with
        | 0 -> Value.Int (Util.Prng.int rng 1000)
        | 1 -> Value.Int ((1 lsl 40) + Util.Prng.int rng 1000)
        | 2 -> Value.Str (Printf.sprintf "key-%06d" (Util.Prng.int rng 1000))
        | 3 -> Value.Float (float_of_int (Util.Prng.int rng 8) /. 4.0)
        | 4 -> Value.Int (-1 - Util.Prng.int rng 1000)
        | 5 -> Value.Int [| (1 lsl w) - 1; 1 lsl w; min_int; 0 |].(Util.Prng.int rng 4)
        | _ -> if Util.Prng.int rng 4 = 0 then Value.Null else Value.Int (Util.Prng.int rng 1000)
      in
      let schema =
        Schema.make
          (List.init (key_arity + 1) (fun i ->
               if i < key_arity then
                 ( Printf.sprintf "k%d" i,
                   match col_class.(i) with
                   | 2 -> Value.TStr
                   | 3 -> Value.TFloat
                   | _ -> Value.TInt )
               else ("x", Value.TFloat)))
      in
      let rel = Relation.create "R" schema in
      for _ = 1 to rows do
        Relation.append rel
          (Array.init (key_arity + 1) (fun i ->
               if i < key_arity then field i
               else Value.Float (float_of_int (Util.Prng.int rng 64) /. 16.0)))
      done;
      let positions = Array.init key_arity Fun.id in
      let cols = Relation.columns rel in
      let from_cols = Relation.extractor rel positions in
      let read = Keypack.reader cols positions in
      List.for_all
        (fun (i, t) ->
          let kc = from_cols i and kt = Keypack.key_of_tuple positions t in
          let int_form =
            match kt with Keypack.P p when p <> Keypack.nopack -> p | _ -> Keypack.nopack
          in
          let p, boxed = Keypack.of_key kt in
          Keypack.key_equal kc kt
          && Keypack.key_hash kc = Keypack.key_hash kt
          && List.for_all
               (fun shards ->
                 Keypack.shard_of_key ~shards kc = Keypack.shard_of_key ~shards kt)
               [ 1; 4; 8 ]
          && read i = int_form
          && Keypack.pack cols positions i = int_form
          && p = int_form
          && Keypack.key_equal (Keypack.to_key p boxed) kt)
        (List.mapi (fun i t -> (i, t)) (Relation.to_list rel)))

(* ---- Keypack.Index ---- *)

(* Packed keys whose homes at 16, 32 and 64 slots are the last two slots or
   the first two: their probe runs share slots and wrap past the last one
   at every size the model test grows to. *)
let crowded_keys =
  let rec go acc x =
    if List.length acc = 24 then List.rev acc
    else
      let h = Keypack.hash x land 63 in
      go (if h >= 62 || h <= 1 then x :: acc else acc) (x + 1)
  in
  go [] 0

(* Keys that do not pack: a string, two fields over the field budget, an
   arity-1 [Int min_int] and a null. *)
let boxed_keys =
  [ [| Value.Str "a" |]; [| int (1 lsl 40); int 3 |]; [| int min_int |]; [| Value.Null |] ]

type index_key = Packed of int | Boxed of Tuple.t

(* Random finds, adds, inserts, overwrites, removals and clears against a
   [Hashtbl] model, every key compared after every step. *)
let index_matches_model =
  let keys =
    Array.of_list
      (List.map (fun p -> Packed p) (crowded_keys @ [ -5; max_int; 1 lsl 40 ])
      @ List.map (fun t -> Boxed t) boxed_keys)
  in
  QCheck2.Test.make ~count:300 ~name:"Keypack.Index agrees with a Hashtbl model"
    QCheck2.Gen.(
      list_size (int_range 1 200)
        (triple (int_range 0 99) (int_range 0 (Array.length keys - 1)) (int_range 0 1000)))
    (fun ops ->
      let t = Keypack.Index.create () and model = Hashtbl.create 16 in
      let find = function
        | Packed p -> Keypack.Index.find t p
        | Boxed k -> Keypack.Index.find_boxed t k
      in
      let expected k = Option.value ~default:(-1) (Hashtbl.find_opt model k) in
      let agrees () =
        Keypack.Index.length t = Hashtbl.length model
        && Array.for_all (fun k -> find k = expected k) keys
      in
      List.for_all (fun b -> Keypack.pack_tuple b = Keypack.nopack) boxed_keys
      && List.for_all
           (fun (op, i, v) ->
             let k = keys.(i) in
             let ok =
               if op < 20 then find k = expected k
               else if op < 40 then begin
                 let before = expected k in
                 let got =
                   match k with
                   | Packed p -> Keypack.Index.add t p v
                   | Boxed b ->
                       let r = Keypack.Index.find_boxed t b in
                       if r < 0 then ignore (Keypack.Index.replace_boxed t b v);
                       r
                 in
                 if before < 0 then Hashtbl.replace model k v;
                 got = before
               end
               else if op < 65 then begin
                 let previous =
                   match k with
                   | Packed p -> Keypack.Index.replace t p v
                   | Boxed b -> Keypack.Index.replace_boxed t b v
                 in
                 let ok = previous = expected k in
                 Hashtbl.replace model k v;
                 ok
               end
               else if op < 95 then begin
                 (match k with
                 | Packed p -> Keypack.Index.remove t p
                 | Boxed b -> Keypack.Index.remove_boxed t b);
                 Hashtbl.remove model k;
                 true
               end
               else begin
                 Keypack.Index.clear t;
                 Hashtbl.reset model;
                 true
               end
             in
             ok && agrees ())
           ops)

(* Growth to a large table, a dense clear, sparse clears of the grown
   table, [of_keys], and the insert counters. *)
let test_index_growth_and_clear () =
  let t = Keypack.Index.create () and n = 5000 in
  let key i = (i * 7919) - 40_000 in
  let check_all label live =
    for i = 0 to n - 1 do
      Alcotest.(check int) label (if live then i else -1) (Keypack.Index.find t (key i))
    done
  in
  Obs.reset ();
  Obs.with_enabled true (fun () ->
      for i = 0 to n - 1 do
        ignore (Keypack.Index.replace t (key i) i)
      done;
      Alcotest.(check int) "an overwrite returns the old value" 7
        (Keypack.Index.replace t (key 7) 7);
      ignore (Keypack.Index.replace_boxed t [| Value.Str "s" |] 1));
  Alcotest.(check int) "new packed keys counted" n (Obs.counter_value_by_name "keypack.packed");
  Alcotest.(check int) "new boxed keys counted" 1 (Obs.counter_value_by_name "keypack.boxed");
  Obs.reset ();
  Alcotest.(check int) "grown" (n + 1) (Keypack.Index.length t);
  check_all "found after growth" true;
  Keypack.Index.clear t;
  Alcotest.(check int) "dense clear" 0 (Keypack.Index.length t);
  check_all "gone after a dense clear" false;
  Alcotest.(check int) "boxed side cleared" (-1) (Keypack.Index.find_boxed t [| Value.Str "s" |]);
  for round = 1 to 20 do
    List.iter (fun i -> ignore (Keypack.Index.replace t (key i) round)) [ 3; 5; 11; 4999 ];
    Keypack.Index.remove t (key 5);
    ignore (Keypack.Index.replace t (key 5) round);
    Keypack.Index.remove t (key 11);
    Alcotest.(check (list int)) "before a sparse clear" [ round; round; -1; round ]
      (List.map (fun i -> Keypack.Index.find t (key i)) [ 3; 5; 11; 4999 ]);
    Keypack.Index.clear t;
    Alcotest.(check int) "sparse clear" 0 (Keypack.Index.length t);
    check_all "gone after a sparse clear" false
  done;
  let ix = Keypack.Index.of_keys [| 5; Keypack.nopack; 9; -2 |] 3 in
  Alcotest.(check (list int)) "of_keys: the first n keys to their rows" [ 0; 2; -1 ]
    (List.map (Keypack.Index.find ix) [ 5; 9; -2 ]);
  Alcotest.(check int) "of_keys skips nopack" 2 (Keypack.Index.length ix)

(* Zipf-skewed key traffic: the hot ranks dominate the SAMPLE, but routing
   only ever sees each distinct key once per table bucket — the distinct
   keys must still spread within 2x of the per-shard mean, for packed ints
   and for boxed (string) keys alike. *)
let test_zipf_shard_distribution () =
  let rng = Util.Prng.create 77 in
  let n = 10_000 in
  let draws = 20_000 in
  let seen = Hashtbl.create 1024 and z = Util.Prng.zipf_sampler ~n ~s:1.2 in
  for _ = 1 to draws do
    Hashtbl.replace seen (Util.Prng.zipf rng z) ()
  done;
  let check label key_of =
    List.iter
      (fun shards ->
        let counts = Array.make shards 0 in
        let distinct = Hashtbl.length seen in
        Hashtbl.iter
          (fun rank () ->
            let s = Keypack.shard_of_key ~shards (key_of rank) in
            counts.(s) <- counts.(s) + 1)
          seen;
        let mean = float_of_int distinct /. float_of_int shards in
        Array.iteri
          (fun s c ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: shard %d/%d holds %d distinct keys <= 2x mean %g"
                 label s shards c mean)
              true
              (float_of_int c <= 2.0 *. mean))
          counts)
      [ 4; 8 ]
  in
  Alcotest.(check bool) "skew reached the tail" true (Hashtbl.length seen > 100);
  check "packed" (fun rank -> Keypack.key_of_tuple [| 0 |] [| Value.Int rank |]);
  check "boxed" (fun rank ->
      Keypack.key_of_tuple [| 0 |] [| Value.Str (Printf.sprintf "key-%09d" rank) |])

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "relational"
    [
      ( "schema",
        [
          Alcotest.test_case "positions" `Quick test_schema_positions;
          Alcotest.test_case "join schema" `Quick test_schema_join;
        ] );
      ("value", [ qcheck value_compare_total ]);
      ( "ops",
        [
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "additive inequality" `Quick test_additive_ineq_predicate;
          Alcotest.test_case "bag projection" `Quick test_project_bag;
          qcheck join_matches_reference;
          Alcotest.test_case "disjoint join = cartesian" `Quick
            test_join_cartesian_when_disjoint;
          Alcotest.test_case "semijoin" `Quick test_semijoin;
          qcheck groupby_matches_reference;
          Alcotest.test_case "scalar aggregates" `Quick test_aggregate_scalar;
          qcheck predicate_compile_cols_matches_eval;
          Alcotest.test_case "sort_by" `Quick test_sort_by;
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "value accounting + csv" `Quick
            test_relation_value_accounting;
          Alcotest.test_case "append arity mismatch" `Quick test_append_arity_mismatch;
        ] );
      ( "columnar-vs-boxed",
        [
          qcheck cartesian_matches_boxed_oracle;
          qcheck distinct_matches_boxed_oracle;
          qcheck projection_matches_boxed_oracle;
        ] );
      ( "keypack",
        [
          Alcotest.test_case "shard distribution sanity" `Quick
            test_shard_distribution;
          Alcotest.test_case "zipf distinct-key distribution" `Quick
            test_zipf_shard_distribution;
          qcheck shard_route_roundtrip;
          qcheck extractor_matches_tuple_path;
          qcheck index_matches_model;
          Alcotest.test_case "index growth and clears" `Quick test_index_growth_and_clear;
        ] );
      ( "hypergraph",
        [
          Alcotest.test_case "chain acyclic" `Quick test_gyo_acyclic_chain;
          Alcotest.test_case "triangle cyclic" `Quick test_gyo_triangle_cyclic;
          Alcotest.test_case "star acyclic" `Quick test_gyo_star_acyclic;
        ] );
      ( "join-tree",
        [
          Alcotest.test_case "running intersection (all roots)" `Quick
            test_join_tree_running_intersection;
          Alcotest.test_case "cyclic raises" `Quick test_join_tree_cyclic_raises;
        ] );
      ( "database",
        [
          Alcotest.test_case "materialise join" `Quick test_database_join;
          qcheck clustering_matches_oracle;
          Alcotest.test_case "clustering skips" `Quick test_clustering_skips;
        ] );
    ]
