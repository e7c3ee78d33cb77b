(* Tests for incremental view maintenance: after any random sequence of
   inserts and deletes, every strategy's maintained covariance matrix equals
   the from-scratch recomputation, and all three strategies agree. *)

open Relational
module Cov = Rings.Covariance
module M = Fivm.Maintainer
module Delta = Fivm.Delta
module Sg = Datagen.Stream_gen

let int n = Value.Int n
let flt x = Value.Float x

(* The star workload with integer-valued features in {0..4}. *)
let features = Sg.star_features
let stream ~seed ~steps = Sg.star_stream ~draw:Sg.Integer ~seed steps

let covariance_from_flat db =
  (* reference: materialise the join of the storage contents *)
  let join = Database.materialise_join db in
  let schema = Relation.schema join in
  let positions = List.map (Schema.position schema) features in
  let acc = Cov.Acc.create (List.length features) in
  Relation.iter
    (fun t ->
      Cov.Acc.add_tuple acc
        (Array.of_list (List.map (fun p -> Value.to_float t.(p)) positions)))
    join;
  Cov.Acc.freeze acc

let run_updates strategy updates =
  let m = M.create strategy (Sg.star_database ()) ~features in
  List.iter (M.apply m) updates;
  m

let maintained_equals_recomputed strategy =
  QCheck2.Test.make ~count:30
    ~name:
      (Printf.sprintf "%s: maintained = recomputed" (M.strategy_name strategy))
    QCheck2.Gen.(pair (int_range 0 60) int)
    (fun (steps, seed) ->
      let updates = stream ~seed ~steps in
      let m = run_updates strategy updates in
      Cov.equal ~eps:1e-6 (M.covariance m) (M.recompute m))

let strategies_agree =
  QCheck2.Test.make ~count:20 ~name:"all three strategies agree"
    QCheck2.Gen.(pair (int_range 0 50) int)
    (fun (steps, seed) ->
      let updates = stream ~seed ~steps in
      let a = M.covariance (run_updates M.F_ivm updates) in
      let b = M.covariance (run_updates M.Higher_order updates) in
      let c = M.covariance (run_updates M.First_order updates) in
      Cov.equal ~eps:1e-6 a b && Cov.equal ~eps:1e-6 b c)

(* deterministic end-to-end check against a flat-join reference *)
let test_against_flat_join () =
  let updates = stream ~seed:2024 ~steps:120 in
  let m = run_updates M.F_ivm updates in
  (* replay the surviving multiset into a database *)
  let db = Sg.star_database () in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (u : Delta.update) ->
      let k = (u.relation, u.tuple) in
      let c = Option.value ~default:0 (Hashtbl.find_opt counts k) in
      Hashtbl.replace counts k (c + u.multiplicity))
    updates;
  Hashtbl.iter
    (fun (rel, tuple) c ->
      for _ = 1 to c do
        Relation.append (Database.relation db rel) tuple
      done)
    counts;
  Alcotest.(check bool)
    "F-IVM matches flat-join covariance" true
    (Cov.equal ~eps:1e-6 (M.covariance m) (covariance_from_flat db))

let test_insert_then_delete_is_identity () =
  let m = M.create M.F_ivm (Sg.star_database ()) ~features in
  let us =
    [
      Delta.insert "F" [| int 1; int 2; flt 3.0 |];
      Delta.insert "D1" [| int 1; flt 4.0 |];
      Delta.insert "D2" [| int 2; flt 5.0 |];
    ]
  in
  List.iter (M.apply m) us;
  Alcotest.(check (float 1e-9)) "one join tuple" 1.0 (Cov.count (M.covariance m));
  (* delete everything in reverse *)
  List.iter
    (fun (u : Delta.update) -> M.apply m (Delta.delete u.relation u.tuple))
    (List.rev us);
  Alcotest.(check (float 1e-9)) "back to empty" 0.0 (Cov.count (M.covariance m))

let test_bulk_multiplicity () =
  let m = M.create M.F_ivm (Sg.star_database ()) ~features in
  M.apply m { Delta.relation = "F"; tuple = [| int 1; int 1; flt 2.0 |]; multiplicity = 3 };
  M.apply m (Delta.insert "D1" [| int 1; flt 1.0 |]);
  M.apply m (Delta.insert "D2" [| int 1; flt 1.0 |]);
  Alcotest.(check (float 1e-9)) "3 join tuples" 3.0 (Cov.count (M.covariance m));
  Alcotest.(check (float 1e-9)) "sum m = 6" 6.0
    (Cov.sum (M.covariance m) 0)

(* [M.covariance] hands out a copy: a returned triple keeps its bits under
   later updates, and writing into its arrays leaves the next one alone. *)
let test_covariance_is_a_copy () =
  List.iter
    (fun strategy ->
      let name = M.strategy_name strategy in
      let m = run_updates strategy (stream ~seed:31 ~steps:80) in
      let c = M.covariance m in
      let kept = Array.copy c in
      List.iter (M.apply m) (stream ~seed:32 ~steps:80);
      let now = M.covariance m in
      Alcotest.(check bool) (name ^ ": the updates moved the triple") false (Cov.equal_bits now kept);
      Alcotest.(check bool) (name ^ ": an earlier triple keeps its bits") true (Cov.equal_bits c kept);
      let want = Array.copy now in
      Array.fill now 0 (Array.length now) nan;
      Alcotest.(check bool) (name ^ ": writes into a triple stay out") true
        (Cov.equal_bits (M.covariance m) want))
    [ M.F_ivm; M.Higher_order ]

let test_throughput_sanity () =
  (* F-IVM should process a small stream strictly faster than first-order on
     a join with fan-out; this is the Figure 4 (right) shape at toy scale.
     Only a sanity check (no strict timing assertion, just completion). *)
  let updates = stream ~seed:7 ~steps:300 in
  let m = run_updates M.F_ivm updates in
  Alcotest.(check bool) "non-trivial state" true (Cov.count (M.covariance m) >= 0.0)

(* ---- stream generation ---- *)

let test_stream_dimensions_first () =
  let db = Datagen.Retailer.generate ~scale:0.01 ~seed:8 () in
  let stream = Datagen.Stream_gen.inserts_of_database db in
  let fact_card =
    List.fold_left
      (fun acc r -> Stdlib.max acc (Relation.cardinality r))
      0 (Database.relations db)
  in
  Alcotest.(check int) "stream covers the database"
    (Database.total_cardinality db) (List.length stream);
  (* the LAST fact_card updates are all fact inserts *)
  let tail =
    List.filteri
      (fun i _ -> i >= List.length stream - fact_card)
      stream
  in
  Alcotest.(check bool) "facts last" true
    (List.for_all (fun (u : Delta.update) -> u.relation = "Inventory") tail)

let test_churn_nets_to_database () =
  let db = Datagen.Retailer.generate ~scale:0.01 ~seed:9 () in
  let stream = Datagen.Stream_gen.with_churn ~churn:0.3 db in
  let net = Hashtbl.create 64 in
  List.iter
    (fun (u : Delta.update) ->
      let k = (u.relation, u.tuple) in
      Hashtbl.replace net k
        (u.multiplicity + Option.value ~default:0 (Hashtbl.find_opt net k)))
    stream;
  let total = Hashtbl.fold (fun _ m acc -> acc + m) net 0 in
  Alcotest.(check int) "net content = database" (Database.total_cardinality db) total

let test_view_sizes_reported () =
  let m = M.create M.F_ivm (Sg.star_database ()) ~features in
  M.apply m (Delta.insert "F" [| int 1; int 2; flt 3.0 |]);
  match m with
  | _ ->
      (* access through the storage: three relations tracked *)
      let s = M.storage m in
      Alcotest.(check int) "one stored tuple" 1 (Fivm.Storage.total_tuples s)

let test_obs_counters_track_batch () =
  let m = M.create M.F_ivm (Sg.star_database ()) ~features in
  let batch =
    [
      Delta.insert "F" [| int 1; int 2; flt 3.0 |];
      Delta.insert "D1" [| int 1; flt 1.0 |];
      Delta.insert "D2" [| int 2; flt 1.0 |];
      { Delta.relation = "F"; tuple = [| int 1; int 2; flt 5.0 |]; multiplicity = 2 };
    ]
  in
  Obs.reset ();
  Obs.with_enabled true (fun () -> M.apply_batch m batch);
  Alcotest.(check int) "fivm.updates = batch length" (List.length batch)
    (Obs.counter_value_by_name "fivm.updates");
  Alcotest.(check int) "fivm.delta_tuples sums multiplicities" 5
    (Obs.counter_value_by_name "fivm.delta_tuples");
  Alcotest.(check int) "fivm.batches" 1 (Obs.counter_value_by_name "fivm.batches");
  (* the end-of-batch gauges reflect the maintainer's own accessors *)
  Alcotest.(check (float 0.0)) "fivm.view_rows gauge"
    (float_of_int (M.view_rows m))
    (Obs.gauge_value (Obs.gauge "fivm.view_rows"));
  Alcotest.(check (float 0.0)) "fivm.storage_tuples gauge"
    (float_of_int (Fivm.Storage.total_tuples (M.storage m)))
    (Obs.gauge_value (Obs.gauge "fivm.storage_tuples"));
  Obs.reset ()

(* ---- base storage: orders, snapshots and costs ---- *)
module S = Fivm.Storage

(* A straightforward model of the storage: per relation a newest-first
   list of live (tuple, multiplicity, stamp) entries as first inserted,
   deletes by [List.filter], buckets by filtering on
   [Keypack.key_of_tuple], insertion stamps sorted for [dump], and the
   snapshot a replay of that dump into fresh relations (m copies of a tuple
   of multiplicity m, appended after [Database.create]). [Fivm.Storage]
   must expose exactly its orders, since bucket order fixes the float
   accumulation order downstream, and its snapshot row for row. *)
module Ref_storage = struct
  type entry = { tuple : Tuple.t; mutable mult : int; stamp : int }

  type node = {
    rel : Relation.t; (* name and schema *)
    keys : (string * int array) list; (* neighbour -> sorted key positions *)
    mutable live : entry list; (* newest first *)
  }

  type t = { db : Database.t; nodes : (string * node) list; mutable clock : int }

  let create (db : Database.t) =
    let node rel =
      let schema = Relation.schema rel in
      let keys =
        List.filter_map
          (fun other ->
            match Schema.common schema (Relation.schema other) with
            | [] -> None
            | key when other != rel ->
                Some
                  ( Relation.name other,
                    Array.of_list (List.map (Schema.position schema) (List.sort compare key)) )
            | _ -> None)
          (Database.relations db)
      in
      (Relation.name rel, { rel; keys; live = [] })
    in
    { db; nodes = List.map node (Database.relations db); clock = 0 }

  let find r rel tuple =
    List.find_opt (fun e -> Tuple.equal e.tuple tuple) (List.assoc rel r.nodes).live

  let multiplicity r rel tuple = match find r rel tuple with Some e -> e.mult | None -> 0

  let apply r (u : Delta.update) =
    let n = List.assoc u.relation r.nodes in
    match find r u.relation u.tuple with
    | Some e ->
        let m = e.mult + u.multiplicity in
        if m = 0 then n.live <- List.filter (fun e' -> e' != e) n.live else e.mult <- m
    | None ->
        if u.multiplicity <> 0 then begin
          n.live <- { tuple = u.tuple; mult = u.multiplicity; stamp = r.clock } :: n.live;
          r.clock <- r.clock + 1
        end

  let matching r rel ~neighbour key =
    let n = List.assoc rel r.nodes in
    let positions = List.assoc neighbour n.keys in
    List.filter_map
      (fun e ->
        if Keypack.key_equal (Keypack.key_of_tuple positions e.tuple) key then
          Some (e.tuple, e.mult)
        else None)
      n.live

  let total r =
    List.fold_left
      (fun acc (_, n) -> List.fold_left (fun acc e -> acc + abs e.mult) acc n.live)
      0 r.nodes

  let dump r =
    List.concat_map (fun (rel, n) -> List.map (fun e -> (e.stamp, (rel, e.tuple, e.mult))) n.live) r.nodes
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd

  let snapshot r =
    let rels =
      List.map
        (fun rel -> Relation.create (Relation.name rel) (Relation.schema rel))
        (Database.relations r.db)
    in
    let db = Database.create (Database.name r.db) rels in
    List.iter
      (fun (rel, tuple, m) ->
        let rel = Database.relation db rel in
        for _ = 1 to m do
          Relation.append rel tuple
        done)
      (dump r);
    db
end

(* Tuples compared by value bits, so -0.0 and 0.0 differ. *)
let tuple_bits t =
  Array.to_list
    (Array.map
       (function
         | Value.Float x -> Printf.sprintf "f%Lx" (Int64.bits_of_float x)
         | Value.Int x -> Printf.sprintf "i%d" x
         | v -> Value.to_string v)
       t)

let representation c =
  match Column.data c with
  | Column.Ints _ -> "ints"
  | Column.Floats _ -> "floats"
  | Column.Boxed _ -> "boxed"

(* A relation's rows by bits, and its columns' representations. *)
let relation_bits rel =
  ( List.map tuple_bits (Relation.to_list rel),
    Array.to_list (Array.map representation (Relation.columns rel)) )

(* A star whose join keys cover every key shape: packed pairs, packed
   singletons with negative values, and boxed pairs, strings and floats
   (with 0.0 and -0.0 as one key). D1's whole-tuple key packs unless
   [c] or [a] is out of range. F's and D3's float columns also receive an
   [Int], and D4's int column a [Float], which promotes them. *)
let layout_db () =
  let rel name attrs = Relation.create name (Schema.make attrs) in
  Database.create "layout"
    [
      rel "F"
        [ ("a", Value.TInt); ("b", Value.TInt); ("e", Value.TInt); ("s", Value.TStr);
          ("w", Value.TFloat) ];
      rel "D1" [ ("a", Value.TInt); ("b", Value.TInt); ("c", Value.TInt) ];
      rel "D2" [ ("s", Value.TStr); ("x", Value.TInt) ];
      rel "D3" [ ("w", Value.TFloat); ("y", Value.TFloat) ];
      rel "D4" [ ("e", Value.TInt); ("z", Value.TInt) ];
    ]

let layout_pools =
  let ( let* ) l f = List.concat_map f l in
  let str x = Value.Str x in
  [|
    ( "F",
      Array.of_list
        ((let* a = [ 0; -1 ] in
          let* e = [ 0; -7 ] in
          let* s = [ "x"; "y" ] in
          let* w = [ 0.0; -0.0; 1.5 ] in
          [ [| int a; int 1; int e; str s; flt w |] ])
        @ [ [| int 0; int 1; int 0; str "x"; int 2 |] ]) );
    ( "D1",
      Array.of_list
        (let* a = [ 0; -1 ] in
         let* c = [ 3; 1 lsl 40 ] in
         [ [| int a; int 1; int c |] ]) );
    ( "D2",
      Array.of_list
        (let* s = [ "x"; "y"; "z" ] in
         [ [| str s; int 5 |] ]) );
    ( "D3",
      Array.of_list
        ((let* w = [ 0.0; -0.0; 1.5 ] in
          let* y = [ 0.0; -0.0 ] in
          [ [| flt w; flt y |] ])
        @ [ [| int 2; flt 0.5 |]; [| flt 1.5; int 0 |] ]) );
    ( "D4",
      [| [| int 0; int 2 |]; [| int (-7); int 2 |]; [| int (-7); int 3 |]; [| int 0; flt 2.5 |] |]
    );
  |]

(* Every (relation, neighbour, key) the pools can reach, once. *)
let layout_probes r =
  Array.fold_left
    (fun acc (rel, pool) ->
      let n = List.assoc rel r.Ref_storage.nodes in
      List.fold_left
        (fun acc (neighbour, positions) ->
          Array.fold_left
            (fun acc t ->
              let key = Keypack.key_of_tuple positions t in
              if
                List.exists
                  (fun (r', nb, k) -> r' = rel && nb = neighbour && Keypack.key_equal k key)
                  acc
              then acc
              else (rel, neighbour, key) :: acc)
            acc pool)
        acc n.keys)
    [] layout_pools

(* After an update, the storage under a maintainer and the reference agree
   on every multiplicity, every bucket's newest-first [first]/[next]
   walk, [dump], [total_tuples], and the snapshot's rows and column
   representations, all bit for bit. *)
let check_against_reference m r probes step (u : Delta.update) =
  let s = M.storage m in
  let fail what = QCheck2.Test.fail_reportf "step %d (%a): %s differs" step Delta.pp u what in
  let bits l = List.map (fun (t, m) -> (tuple_bits t, m)) l in
  let dump_bits = List.map (fun (rel, t, m) -> (rel, tuple_bits t, m)) in
  let dumped = List.map (fun (u : Delta.update) -> (u.relation, u.tuple, u.multiplicity)) (S.dump s) in
  if dump_bits (Ref_storage.dump r) <> dump_bits dumped then fail "dump";
  if Ref_storage.total r <> S.total_tuples s then fail "total_tuples";
  Array.iter
    (fun (rel, pool) ->
      let n = S.node s rel in
      Array.iter
        (fun t -> if Ref_storage.multiplicity r rel t <> S.multiplicity n t then fail "multiplicity")
        pool)
    layout_pools;
  List.iter
    (fun (rel, neighbour, key) ->
      let n = S.node s rel in
      let row r = Array.map (fun c -> Column.get c r) (S.cells n) in
      let e = S.edge n ~neighbour in
      let rec walk r acc =
        if r < 0 then List.rev acc else walk (S.next e r) ((row r, S.row_multiplicity n r) :: acc)
      in
      let got =
        walk
          (match key with
          | Keypack.P p when p <> Keypack.nopack -> S.first e p [||]
          | k -> S.first e Keypack.nopack (Keypack.key_tuple 1 k))
          []
      in
      if bits got <> bits (Ref_storage.matching r rel ~neighbour key) then
        fail ("bucket " ^ rel ^ "->" ^ neighbour))
    probes;
  let expected = Ref_storage.snapshot r and snap = M.snapshot m in
  List.iter
    (fun rel ->
      let name = Relation.name rel in
      if relation_bits rel <> relation_bits (Database.relation snap name) then
        fail ("snapshot of " ^ name))
    (Database.relations expected)

(* One update code: an insert, a delete (past zero too), a bulk of two
   either way, a delete to zero (or an insert when absent) and a no-op. *)
let layout_update r (ri, ti, code) =
  let rel, pool = layout_pools.(ri) in
  let tuple = pool.(ti mod Array.length pool) in
  let current = Ref_storage.multiplicity r rel tuple in
  let multiplicity =
    match code with
    | 0 | 1 -> 1
    | 2 -> -1
    | 3 -> 2
    | 4 -> -2
    | 5 | 6 -> if current <> 0 then -current else 1
    | _ -> 0
  in
  { Delta.relation = rel; tuple; multiplicity }

(* [Storage.iter_live] walks each node's live rows in first-insertion
   order with their multiplicities, negative ones too: the model's live
   list, oldest first. *)
let check_iter_live m r _probes step (u : Delta.update) =
  let s = M.storage m in
  List.iter
    (fun (rel, (n : Ref_storage.node)) ->
      let node = S.node s rel in
      let got = ref [] in
      S.iter_live node (fun row mult ->
          got := (tuple_bits (Array.map (fun c -> Column.get c row) (S.cells node)), mult) :: !got);
      let expected =
        List.rev_map (fun (e : Ref_storage.entry) -> (tuple_bits e.tuple, e.mult)) n.live
      in
      if List.rev !got <> expected then
        QCheck2.Test.fail_reportf "step %d (%a): iter_live on %s differs" step Delta.pp u rel)
    r.Ref_storage.nodes

let run_layout ?(check = check_against_reference) ops =
  let db = layout_db () in
  let m = M.create M.F_ivm db ~features:[] in
  let r = Ref_storage.create db in
  let probes = layout_probes r in
  List.iteri
    (fun step op ->
      let u = layout_update r op in
      Ref_storage.apply r u;
      M.apply m u;
      check m r probes step u)
    ops

let storage_matches_reference =
  QCheck2.Test.make ~count:100 ~name:"storage orders = list-and-stamp reference"
    QCheck2.Gen.(
      list_size (int_range 1 200)
        (triple (int_bound (Array.length layout_pools - 1)) (int_bound 1000) (int_bound 7)))
    (fun ops ->
      run_layout ops;
      true)

(* Churn that compacts: fill every pool, delete three tuples in four,
   insert them again, and delete every other tuple. *)
let churn_ops () =
  let each f = Array.iteri (fun ri (_, pool) -> Array.iteri (fun ti _ -> f ri ti) pool) layout_pools in
  let ops = ref [] in
  let add op = ops := op :: !ops in
  each (fun ri ti -> add (ri, ti, 0));
  each (fun ri ti -> if ti mod 4 <> 0 then add (ri, ti, 5));
  each (fun ri ti -> if ti mod 4 <> 0 then add (ri, ti, 3));
  each (fun ri ti -> if ti mod 2 = 0 then add (ri, ti, 5));
  List.rev !ops

(* The churn, checking the storage against the reference after every
   update, so before and after each compaction. *)
let test_compaction_keeps_orders () =
  Obs.reset ();
  Obs.with_enabled true (fun () -> run_layout (churn_ops ()));
  let compactions = Obs.counter_value_by_name "fivm.storage_compactions" in
  Obs.reset ();
  Alcotest.(check bool) (Printf.sprintf "%d compactions" compactions) true (compactions > 0)

(* After the churn, which deletes, inserts again and compacts, a random
   stream: [iter_live] matches the model after every update. *)
let iter_live_matches_reference =
  QCheck2.Test.make ~count:50 ~name:"iter_live = the reference's live rows, oldest first"
    QCheck2.Gen.(
      list_size (int_range 1 200)
        (triple (int_bound (Array.length layout_pools - 1)) (int_bound 1000) (int_bound 7)))
    (fun ops ->
      run_layout ~check:check_iter_live (churn_ops () @ ops);
      true)

(* A delete unlinks one entry: it allocates the same whether its bucket
   holds 10,000 tuples or 10. A delete that copies the bucket allocates in
   proportion to it. *)
let test_delete_cost_is_flat () =
  let db =
    Database.create "buckets"
      [
        Relation.create "F" (Schema.make [ ("a", Value.TInt); ("b", Value.TInt) ]);
        Relation.create "D" (Schema.make [ ("a", Value.TInt); ("x", Value.TInt) ]);
      ]
  in
  let s = S.create db in
  let fact a b = [| int a; int b |] in
  let fill a n = for b = 0 to n - 1 do S.apply s (Delta.insert "F" (fact a b)) done in
  fill 0 10_000;
  fill 1 10;
  fill 2 2;
  let words_to_delete a b =
    let u = Delta.delete "F" (fact a b) in
    let before = Gc.minor_words () in
    S.apply s u;
    Gc.minor_words () -. before
  in
  (* a first delete outside the measured pair, so neither pays one-off costs *)
  ignore (words_to_delete 2 0);
  let big = words_to_delete 0 5_000 in
  let small = words_to_delete 1 5 in
  Alcotest.(check bool)
    (Printf.sprintf "10,000-tuple bucket: %.0f words; 10-tuple bucket: %.0f" big small)
    true (big <= small);
  Alcotest.(check int) "both deleted" 0
    (S.multiplicity (S.node s "F") (fact 0 5_000) + S.multiplicity (S.node s "F") (fact 1 5))

(* A delete, and an insert of a live tuple, allocate nothing in the
   storage: the tuple is unboxed into the staging row once, and probes,
   links and multiplicities are int arrays. A newly live tuple may grow
   the node, so it is left out. *)
let test_apply_allocation_is_bounded () =
  let db =
    Database.create "rows"
      [
        Relation.create "F"
          (Schema.make [ ("a", Value.TInt); ("b", Value.TInt); ("x", Value.TFloat) ]);
        Relation.create "D" (Schema.make [ ("a", Value.TInt); ("y", Value.TFloat) ]);
      ]
  in
  let s = S.create db in
  let fact k = [| int (k mod 7); int k; flt (float_of_int k /. 8.0) |] in
  for k = 0 to 999 do
    S.apply s (Delta.insert "F" (fact k))
  done;
  let updates = List.init 200 (fun k -> Delta.insert "F" (fact k)) in
  let deletes = List.init 200 (fun k -> Delta.delete "F" (fact (k + 200))) in
  let words us =
    let before = Gc.minor_words () in
    List.iter (S.apply s) us;
    (Gc.minor_words () -. before) /. float_of_int (List.length us)
  in
  let repeat = words updates and delete = words deletes in
  Alcotest.(check bool)
    (Printf.sprintf "repeat insert: %.1f words; delete: %.1f words" repeat delete)
    true
    (repeat <= 2.0 && delete <= 2.0);
  Alcotest.(check int) "multiplicities" 2 (S.multiplicity (S.node s "F") (fact 5));
  Alcotest.(check int) "deleted" 0 (S.multiplicity (S.node s "F") (fact 205))

(* A snapshot copies rows into columns allocated outside the minor heap,
   so its minor allocation is the same at 2,000 rows as at 20,000. *)
let test_snapshot_allocation_is_flat () =
  let words rows =
    let db =
      Database.create "snap"
        [
          Relation.create "F"
            (Schema.make [ ("a", Value.TInt); ("b", Value.TInt); ("x", Value.TFloat) ]);
          Relation.create "D" (Schema.make [ ("a", Value.TInt); ("y", Value.TFloat) ]);
        ]
    in
    let m = M.create M.F_ivm db ~features:[ "x"; "y" ] in
    for a = 0 to 6 do
      M.apply m (Delta.insert "D" [| int a; flt 1.0 |])
    done;
    for k = 0 to rows - 1 do
      M.apply m (Delta.insert "F" [| int (k mod 7); int k; flt (float_of_int k /. 8.0) |])
    done;
    (* churn, so the storage holds dead rows too *)
    for k = 0 to (rows / 10) - 1 do
      M.apply m (Delta.delete "F" [| int (k mod 7); int k; flt (float_of_int k /. 8.0) |])
    done;
    ignore (M.snapshot m);
    let before = Gc.minor_words () in
    let snap = M.snapshot m in
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "snapshot rows" (rows - (rows / 10))
      (Relation.cardinality (Database.relation snap "F"));
    words
  in
  let small = words 2_000 and big = words 20_000 in
  Alcotest.(check bool)
    (Printf.sprintf "2,000 rows: %.0f minor words; 20,000 rows: %.0f" small big)
    true (big <= small)

(* Steady-state F-IVM allocates nothing: once a fact's view keys exist,
   deleting it and inserting it again allocates no payload, key, option,
   closure or list, at d=2 as at d=10 (a d=10 root triple is 111 floats).
   The updates are built before the measurement. The schema is fixed;
   only the feature list, and so the payloads' dimensions, changes. *)
let test_update_allocation_is_flat () =
  let xs = List.init 8 (Printf.sprintf "x%d") in
  let words features =
    let db =
      Database.create "alloc"
        [
          Relation.create "F"
            (Schema.make
               ([ ("a", Value.TInt); ("b", Value.TInt) ]
               @ List.map (fun x -> (x, Value.TFloat)) xs));
          Relation.create "D1" (Schema.make [ ("a", Value.TInt); ("u", Value.TFloat) ]);
          Relation.create "D2" (Schema.make [ ("b", Value.TInt); ("v", Value.TFloat) ]);
        ]
    in
    let m = M.create M.F_ivm db ~features in
    let fact k =
      Array.append
        [| int (k mod 4); int (k mod 3) |]
        (Array.init 8 (fun j -> flt (float_of_int (1 + ((k + j) mod 7)) /. 16.0)))
    in
    for a = 0 to 3 do M.apply m (Delta.insert "D1" [| int a; flt (float_of_int (a + 1)) |]) done;
    for b = 0 to 2 do M.apply m (Delta.insert "D2" [| int b; flt (float_of_int (b + 2)) |]) done;
    for k = 0 to 59 do M.apply m (Delta.insert "F" (fact k)) done;
    let cycles = Array.init 21 (fun k -> (Delta.delete "F" (fact k), Delta.insert "F" (fact k))) in
    let cycle k =
      let del, ins = cycles.(k) in
      M.apply m del;
      M.apply m ins
    in
    (* a first cycle outside the measurement, so none pays one-off costs *)
    cycle 0;
    let before = Gc.minor_words () in
    for k = 1 to 20 do cycle k done;
    (Gc.minor_words () -. before) /. 40.0
  in
  let w2 = words [ "u"; "v" ] and w10 = words (xs @ [ "u"; "v" ]) in
  Alcotest.(check bool)
    (Printf.sprintf "d=2: %.1f words per update; d=10: %.1f" w2 w10)
    true
    (w2 <= 10.0 && w10 <= 10.0)

(* Each view entry is a triple over the features owned in its node's
   subtree: retailer's Items owns prize (3 floats), Inventory adds
   inventoryunits (7), Demographics owns 3 (13), Stores adds 2 (31) and
   the Weather root covers all 10 (111). *)
let test_entry_sizes_follow_subtrees () =
  let db = Datagen.Retailer.generate ~scale:0.01 ~seed:8 () in
  let m = M.create M.F_ivm db ~features:Datagen.Retailer.ivm_features in
  M.apply_batch m (Datagen.Stream_gen.inserts_of_database db);
  let sizes = List.sort compare (M.entry_floats m) in
  let show l =
    String.concat ", "
      (List.map
         (fun (n, fs) -> n ^ " " ^ String.concat "/" (List.map string_of_int fs))
         l)
  in
  Alcotest.(check string) "floats per view entry"
    (show
       [
         ("Demographics", [ 13 ]);
         ("Inventory", [ 7 ]);
         ("Items", [ 3 ]);
         ("Stores", [ 31 ]);
         ("Weather", [ 111 ]);
       ])
    (show sizes)

(* ---- the order a parent consumes deltas in ---- *)

(* One dimension insert makes several child deltas reach one parent key.
   On the chain R(c, x) - F(c, a) - D(a, u), rooted at R (listed D, F, R
   for that), inserting D's row with a = 1 walks F's bucket for a = 1
   newest first, so F's delta table gets the keys c = 3, 2, 1 in that
   order, and each meets one row of R and adds into R's single entry.
   With x = 1 at c = 3 and x = 2^-53 at c = 2 and 1, the sum in insertion
   order is (1 + 2^-53) + 2^-53 = 1 (each step rounds to even), and in
   the reverse order (2^-53 + 2^-53) + 1 = 1 + 2^-52. *)
let test_deltas_in_insertion_order () =
  let e = ldexp 1.0 (-53) in
  let sum = (1.0 +. e) +. e in
  Alcotest.(check bool) "the two orders differ" true
    (Int64.bits_of_float sum <> Int64.bits_of_float ((e +. e) +. 1.0));
  List.iter
    (fun strategy ->
      let db =
        Database.create "chain"
          [
            Relation.create "D" (Schema.make [ ("a", Value.TInt); ("u", Value.TInt) ]);
            Relation.create "F" (Schema.make [ ("c", Value.TInt); ("a", Value.TInt) ]);
            Relation.create "R" (Schema.make [ ("c", Value.TInt); ("x", Value.TFloat) ]);
          ]
      in
      let m = M.create strategy db ~features:[ "x" ] in
      let name = M.strategy_name strategy in
      Alcotest.(check string) (name ^ ": root") "R"
        (Join_tree.root_name (Fivm.Storage.join_tree (M.storage m)));
      List.iter (M.apply m)
        [
          Delta.insert "R" [| int 1; flt e |];
          Delta.insert "R" [| int 2; flt e |];
          Delta.insert "R" [| int 3; flt 1.0 |];
          Delta.insert "F" [| int 1; int 1 |];
          Delta.insert "F" [| int 2; int 1 |];
          Delta.insert "F" [| int 3; int 1 |];
          Delta.insert "D" [| int 1; int 0 |];
        ];
      let expected = [| 3.0; sum; (1.0 +. (e *. e)) +. (e *. e) |] in
      Alcotest.(check bool)
        (name ^ ": the maintained triple is the insertion-order sum, bit for bit")
        true
        (Cov.equal_bits expected (M.covariance m)))
    [ M.F_ivm; M.Higher_order ]

(* ---- triangle maintenance (cyclic IVM) ---- *)
module Tri = Fivm.Triangle

let triangle_maintained_equals_recomputed =
  QCheck2.Test.make ~count:40 ~name:"triangle count: maintained = recomputed"
    QCheck2.Gen.(pair (int_range 0 80) int)
    (fun (steps, seed) ->
      let rng = Util.Prng.create seed in
      let g = Tri.create () in
      let inserted = ref [] in
      for _ = 1 to steps do
        if !inserted <> [] && Util.Prng.int rng 4 = 0 then begin
          let arr = Array.of_list !inserted in
          let which, x, y = Util.Prng.choice rng arr in
          inserted := List.filter (fun e -> e <> (which, x, y)) !inserted;
          Tri.update g which ~x ~y (-1)
        end
        else begin
          let which = [| Tri.R; Tri.S; Tri.T |].(Util.Prng.int rng 3) in
          let x = int (Util.Prng.int rng 5) and y = int (Util.Prng.int rng 5) in
          inserted := (which, x, y) :: !inserted;
          Tri.update g which ~x ~y 1
        end
      done;
      Tri.count g = Tri.recompute g)

let test_triangle_basics () =
  let g = Tri.create () in
  Tri.update g Tri.R ~x:(int 1) ~y:(int 2) 1;
  Tri.update g Tri.S ~x:(int 2) ~y:(int 3) 1;
  Alcotest.(check int) "no triangle yet" 0 (Tri.count g);
  Tri.update g Tri.T ~x:(int 3) ~y:(int 1) 1;
  Alcotest.(check int) "one triangle" 1 (Tri.count g);
  Tri.update g Tri.R ~x:(int 1) ~y:(int 2) (-1);
  Alcotest.(check int) "deleted" 0 (Tri.count g)

(* ---- cyclic fallback in the LMFAO front end ---- ,*)
let test_eval_on_cyclic () =
  let mk name (a1, a2) rows =
    Relation.of_list name
      (Schema.make [ (a1, Value.TInt); (a2, Value.TInt) ])
      (List.map (fun (x, y) -> [| int x; int y |]) rows)
  in
  let db =
    Database.create "tri"
      [
        mk "R" ("a", "b") [ (0, 1); (1, 2) ];
        mk "S" ("b", "c") [ (1, 2); (2, 0) ];
        mk "T" ("c", "a") [ (2, 0); (0, 1) ];
      ]
  in
  let batch =
    {
      Aggregates.Batch.name = "tri";
      aggregates =
        [
          Aggregates.Spec.count ~id:"n";
          Aggregates.Spec.make ~id:"sa" ~terms:[ ("a", 1) ] ~group_by:[] ();
        ];
    }
  in
  (* triangles: (a=0,b=1,c=2) and (a=1,b=2,c=0) *)
  let results =
    (Lmfao.Engine.eval ~on_cyclic:`Materialize db batch).Lmfao.Engine.keyed
  in
  Alcotest.(check (float 1e-9)) "two triangles" 2.0
    (Aggregates.Spec.scalar_result (List.assoc "n" results));
  Alcotest.(check (float 1e-9)) "sum a over join" 1.0
    (Aggregates.Spec.scalar_result (List.assoc "sa" results))

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "fivm"
    [
      ( "maintained-vs-recomputed",
        [
          qcheck (maintained_equals_recomputed M.F_ivm);
          qcheck (maintained_equals_recomputed M.Higher_order);
          qcheck (maintained_equals_recomputed M.First_order);
        ] );
      ("agreement", [ qcheck strategies_agree ]);
      ( "triangles",
        [
          qcheck triangle_maintained_equals_recomputed;
          Alcotest.test_case "insert/delete basics" `Quick test_triangle_basics;
          Alcotest.test_case "cyclic fallback (eval)" `Quick test_eval_on_cyclic;
        ] );
      ( "streams",
        [
          Alcotest.test_case "dimensions before facts" `Quick test_stream_dimensions_first;
          Alcotest.test_case "churn nets to database" `Quick test_churn_nets_to_database;
          Alcotest.test_case "storage tracks tuples" `Quick test_view_sizes_reported;
          Alcotest.test_case "obs counters track batch" `Quick
            test_obs_counters_track_batch;
        ] );
      ( "storage",
        [
          qcheck storage_matches_reference;
          qcheck iter_live_matches_reference;
          Alcotest.test_case "compaction keeps orders and snapshots" `Quick
            test_compaction_keeps_orders;
          Alcotest.test_case "delete cost independent of bucket size" `Quick
            test_delete_cost_is_flat;
          Alcotest.test_case "apply allocation bounded" `Quick test_apply_allocation_is_bounded;
          Alcotest.test_case "snapshot allocation independent of rows" `Quick
            test_snapshot_allocation_is_flat;
          Alcotest.test_case "update allocation independent of dimension" `Quick
            test_update_allocation_is_flat;
          Alcotest.test_case "view entries sized by subtree features" `Quick
            test_entry_sizes_follow_subtrees;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "matches flat-join covariance" `Quick
            test_against_flat_join;
          Alcotest.test_case "insert then delete = identity" `Quick
            test_insert_then_delete_is_identity;
          Alcotest.test_case "bulk multiplicities" `Quick test_bulk_multiplicity;
          Alcotest.test_case "deltas consumed in insertion order" `Quick
            test_deltas_in_insertion_order;
          Alcotest.test_case "covariance is a copy" `Quick test_covariance_is_a_copy;
          Alcotest.test_case "stream completes" `Quick test_throughput_sanity;
        ] );
    ]
