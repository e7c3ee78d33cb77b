(* Update-stream generation for the IVM experiments (Figure 4 right) and the
   hostile-stream scenario matrix: turn a generated database into a stream
   of delta batches against an initially empty database. Dimension tuples
   are interleaved early so the fact inserts find join partners, mirroring a
   live system's load order. The star workload at the end of the file is
   the hand-built schema and stream every other differential shares.

   The [hostile] grammar is schema-agnostic: the fact relation is the
   highest-cardinality one, join keys are the attributes shared between
   schemas, and every shape works for any of the four generators. Hostile
   streams are emitted over a DYADIC-LATTICE copy of the database (float
   features snapped to strictly positive multiples of 1/16, at most 4):
   every covariance-ring operation is then exact in float arithmetic, so a
   maintained result is bit-identical to a from-scratch recompute under ANY
   delivery order, batching, or sharding — which is what lets the scenario
   differentials demand bitwise equality instead of tolerances. *)

open Relational

let fact_relation (db : Database.t) =
  List.fold_left
    (fun acc r ->
      match acc with
      | None -> Some r
      | Some best ->
          if Relation.cardinality r > Relation.cardinality best then Some r else acc)
    None (Database.relations db)
  |> Option.get

(* All tuples of the database as inserts: dimensions first (round-robin),
   then the fact relation's tuples shuffled. [dimension_fraction] of the
   stream prefix is dimension data. *)
let inserts_of_database ?(seed = 1) (db : Database.t) =
  let rng = Util.Prng.create seed in
  let fact = fact_relation db in
  let dims = List.filter (fun r -> r != fact) (Database.relations db) in
  let dim_updates =
    List.concat_map
      (fun r ->
        List.map (fun t -> Fivm.Delta.insert (Relation.name r) t) (Relation.to_list r))
      dims
  in
  let dim_updates = Array.of_list dim_updates in
  Util.Prng.shuffle_in_place rng dim_updates;
  let fact_updates =
    Array.of_list
      (List.map (fun t -> Fivm.Delta.insert (Relation.name fact) t) (Relation.to_list fact))
  in
  Util.Prng.shuffle_in_place rng fact_updates;
  (* dimensions first: realistic reference-data-before-facts loading *)
  Array.to_list dim_updates @ Array.to_list fact_updates

(* A mixed insert/delete stream: after the initial load, [churn] fraction of
   fact tuples are deleted and re-inserted, exercising the additive
   inverse. *)
let with_churn ?(seed = 2) ?(churn = 0.1) (db : Database.t) =
  let rng = Util.Prng.create seed in
  let base = inserts_of_database ~seed db in
  let fact_name = Relation.name (fact_relation db) in
  let fact_inserts =
    List.filter (fun (u : Fivm.Delta.update) -> u.relation = fact_name) base
  in
  let victims =
    List.filter (fun _ -> Util.Prng.float rng 1.0 < churn) fact_inserts
  in
  base
  @ List.concat_map
      (fun (u : Fivm.Delta.update) ->
        [ Fivm.Delta.delete u.relation u.tuple; Fivm.Delta.insert u.relation u.tuple ])
      victims

(* ---- the hostile-stream grammar ---- *)

type shape =
  | Single_tuple
  | Batched of int
  | Churn of float
  | Net_zero
  | Out_of_order of int
  | Zipf_churn of float
  | High_card

let shapes =
  [
    ("single", Single_tuple);
    ("batched", Batched 64);
    ("churn", Churn 0.5);
    ("net-zero", Net_zero);
    ("out-of-order", Out_of_order 32);
    ("zipf", Zipf_churn 1.2);
    ("high-card", High_card);
  ]

let shape_name s =
  match List.find_opt (fun (_, s') -> s' = s) shapes with
  | Some (n, _) -> n
  | None -> (
      match s with
      | Single_tuple -> "single"
      | Batched k -> Printf.sprintf "batched:%d" k
      | Churn f -> Printf.sprintf "churn:%g" f
      | Net_zero -> "net-zero"
      | Out_of_order k -> Printf.sprintf "out-of-order:%d" k
      | Zipf_churn s -> Printf.sprintf "zipf:%g" s
      | High_card -> "high-card")

let shape_of_string name = List.assoc_opt name shapes

(* Snap a float onto the dyadic lattice {1/16 .. 64/16}: a deterministic
   function of the value's bit pattern, strictly positive and exactly
   representable. Sums of lattice values and their pairwise products (the
   covariance triple's s and q components have denominators at most 2^4 and
   2^8) stay exact far past any scale these streams reach, so float addition
   is associative over them. *)
let lattice_of_float x =
  let h = Int64.to_int (Int64.bits_of_float x) in
  let h = h lxor (h lsr 29) lxor (h lsr 47) in
  float_of_int (1 + (h land 63)) /. 16.0

let map_database f (db : Database.t) =
  let rels =
    List.map
      (fun r ->
        let name = Relation.name r in
        let schema, row = f name (Relation.schema r) in
        let out = Relation.create ~capacity:(max 1 (Relation.cardinality r)) name schema in
        Relation.iter (fun t -> Relation.append out (row t)) r;
        out)
      (Database.relations db)
  in
  Database.create (Database.name db) rels

let lattice_database (db : Database.t) =
  map_database
    (fun _ schema ->
      ( schema,
        fun t ->
          Array.mapi
            (fun i v ->
              match v with
              | Value.Float x when (Schema.attr_at schema i).Schema.ty = Value.TFloat ->
                  Value.Float (lattice_of_float x)
              | v -> v)
            t ))
    db

(* Attributes shared by at least two relation schemas: exactly the natural
   join keys the join tree is built from. *)
let shared_attrs (db : Database.t) =
  let count = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun a ->
          Hashtbl.replace count a (1 + Option.value ~default:0 (Hashtbl.find_opt count a)))
        (Schema.names (Relation.schema r)))
    (Database.relations db);
  Hashtbl.fold (fun a n acc -> if n >= 2 then a :: acc else acc) count []

(* High-cardinality categorical keys: every shared int join key becomes a
   string ("key-<v>"), consistently across fact and dimensions so FK
   integrity is preserved. Multi-attribute keys leave [Keypack]'s packed-int
   fast path entirely; single-attribute keys route through the boxed
   [Tuple.t] fallback. *)
let high_card_database (db : Database.t) =
  let keys = shared_attrs db in
  let is_key schema i =
    let a = Schema.attr_at schema i in
    a.Schema.ty = Value.TInt && List.mem a.Schema.name keys
  in
  map_database
    (fun _ schema ->
      let schema' =
        Schema.make
          (List.mapi
             (fun i (a : Schema.attr) ->
               (a.Schema.name, if is_key schema i then Value.TStr else a.Schema.ty))
             (Schema.attrs schema))
      in
      ( schema',
        fun t ->
          Array.mapi
            (fun i v ->
              match v with
              | Value.Int x when is_key schema i -> Value.Str (Printf.sprintf "key-%09d" x)
              | v -> v)
            t ))
    db

let chunk k xs =
  let k = max 1 k in
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if n = k then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

let delete_insert (u : Fivm.Delta.update) =
  [ Fivm.Delta.delete u.relation u.tuple; Fivm.Delta.insert u.relation u.tuple ]

let hostile ?(seed = 7) shape (db : Database.t) =
  let db = lattice_database db in
  let db = match shape with High_card -> high_card_database db | _ -> db in
  let rng = Util.Prng.create (seed lxor 0x5ca1ab1e) in
  let base = inserts_of_database ~seed db in
  let fact_name = Relation.name (fact_relation db) in
  let fact_inserts =
    Array.of_list (List.filter (fun (u : Fivm.Delta.update) -> u.relation = fact_name) base)
  in
  let churn_pairs fraction =
    List.concat_map
      (fun u -> if Util.Prng.float rng 1.0 < fraction then delete_insert u else [])
      (Array.to_list fact_inserts)
  in
  let batches =
    match shape with
    | Single_tuple -> List.map (fun u -> [ u ]) base
    | Batched k -> chunk k base
    | Churn f -> chunk 64 (base @ churn_pairs f)
    | Net_zero ->
        (* churn 1.0 with three victim classes: deleted for good (the group
           nets to ZERO and must vanish from the maintained views), plain
           delete/re-insert, and double-delete/double-insert (multiplicity
           dips PAST zero to -1 before returning). *)
        let ops =
          List.concat
            (List.mapi
               (fun i (u : Fivm.Delta.update) ->
                 match i mod 3 with
                 | 0 -> [ Fivm.Delta.delete u.relation u.tuple ]
                 | 1 -> delete_insert u
                 | _ ->
                     [
                       Fivm.Delta.delete u.relation u.tuple;
                       Fivm.Delta.delete u.relation u.tuple;
                       Fivm.Delta.insert u.relation u.tuple;
                       Fivm.Delta.insert u.relation u.tuple;
                     ])
               (Array.to_list fact_inserts))
        in
        chunk 64 (base @ ops)
    | Out_of_order k ->
        (* window-shuffled delivery: deletes can overtake the inserts they
           cancel (transient negative multiplicities), facts can overtake
           dimensions. Exact-lattice arithmetic keeps the FINAL maintained
           state order-independent, which is precisely what the cell
           checks. *)
        let stream = Array.of_list (base @ churn_pairs 0.25) in
        let n = Array.length stream in
        let w = max 2 k in
        let i = ref 0 in
        while !i < n do
          let len = min w (n - !i) in
          let window = Array.sub stream !i len in
          Util.Prng.shuffle_in_place rng window;
          Array.blit window 0 stream !i len;
          i := !i + len
        done;
        chunk w (Array.to_list stream)
    | Zipf_churn s ->
        (* victim choice is Zipf-skewed over the (already skew-keyed) fact
           tuples: hot keys are churned over and over, cold ones almost
           never — the shard-routing and view-index hot paths see the same
           keys repeatedly. *)
        let n = Array.length fact_inserts in
        let ops =
          if n = 0 then []
          else
            let victims = Util.Prng.zipf_sampler ~n ~s in
            List.concat
              (List.init n (fun _ ->
                   delete_insert fact_inserts.(Util.Prng.zipf rng victims - 1)))
        in
        chunk 64 (base @ ops)
    | High_card -> chunk 64 (base @ churn_pairs 0.25)
  in
  (db, batches)

(* ---- the star workload ----

   A small star schema, F(a,b,m) with dimensions D1(a,u) and D2(b,v), and
   a random insert/delete stream over it: join keys drawn from {0..3} so
   tuples join, one numeric feature per relation. Every hand-built
   differential (maintenance, sharding, recovery, serving, models,
   traffic) runs on this one workload; on the [Lattice] draw its
   covariance arithmetic is exact, so those differentials demand bitwise
   equality. *)

let star_database () =
  Database.create "star"
    [
      Relation.create "F"
        (Schema.make [ ("a", Value.TInt); ("b", Value.TInt); ("m", Value.TFloat) ]);
      Relation.create "D1" (Schema.make [ ("a", Value.TInt); ("u", Value.TFloat) ]);
      Relation.create "D2" (Schema.make [ ("b", Value.TInt); ("v", Value.TFloat) ]);
    ]

let star_features = [ "m"; "u"; "v" ]

let star_batches =
  [
    Aggregates.Batch.covariance_numeric star_features;
    Aggregates.Batch.mutual_information [ "a"; "b" ];
    {
      Aggregates.Batch.name = "grouped";
      aggregates =
        [
          Aggregates.Spec.make ~id:"sum_m_by_a" ~terms:[ ("m", 1) ] ~group_by:[ "a" ] ();
          Aggregates.Spec.count ~id:"n";
        ];
    };
  ]

type draw = Lattice | Uniform | Integer

let draw_value draw rng =
  match draw with
  | Lattice -> float_of_int (1 + Util.Prng.int rng 64) /. 16.0
  | Uniform -> Util.Prng.float rng 5.0
  | Integer -> float_of_int (Util.Prng.int rng 5)

(* [live] holds the inserts not yet deleted, newest first. *)
type star_gen = { draw : draw; deletes : bool; mutable live : Fivm.Delta.update list }

let star_gen ?(draw = Lattice) ?(deletes = true) () = { draw; deletes; live = [] }

(* A quarter of the draws (while anything is live) delete a uniformly
   chosen live insert; the rest insert into a uniformly chosen relation. *)
let star_update g rng =
  if g.deletes && g.live <> [] && Util.Prng.int rng 4 = 0 then begin
    let u = Util.Prng.choice rng (Array.of_list g.live) in
    g.live <- List.filter (fun x -> x != u) g.live;
    Fivm.Delta.delete u.Fivm.Delta.relation u.Fivm.Delta.tuple
  end
  else begin
    let rel = [| "F"; "D1"; "D2" |].(Util.Prng.int rng 3) in
    let tuple =
      match rel with
      | "F" ->
          [|
            Value.Int (Util.Prng.int rng 4);
            Value.Int (Util.Prng.int rng 4);
            Value.Float (draw_value g.draw rng);
          |]
      | _ -> [| Value.Int (Util.Prng.int rng 4); Value.Float (draw_value g.draw rng) |]
    in
    let u = Fivm.Delta.insert rel tuple in
    g.live <- u :: g.live;
    u
  end

let star_updates g rng n = List.init n (fun _ -> star_update g rng)
let star_live g = List.rev g.live

let star_stream ?draw ?deletes ~seed n =
  star_updates (star_gen ?draw ?deletes ()) (Util.Prng.create seed) n
