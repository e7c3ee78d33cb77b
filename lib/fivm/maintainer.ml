(* The three maintenance strategies compared in Figure 4 (right), all
   maintaining the full covariance-matrix batch under tuple updates:

   - F-IVM: ONE view tree whose payload is the covariance ring — a single
     delta propagation per update maintains all (n+1)^2 aggregates at once
     (the compound-payload sharing of Section 5.2).
   - Higher-order IVM: one scalar view tree PER aggregate (delta processing
     with intermediate views, DBToaster-style); each update propagates
     through every tree.
   - First-order IVM: no intermediate views; each update re-evaluates each
     aggregate's delta query against the base relations (classical delta
     processing with index nested-loop joins). *)

open Relational
module Cov = Rings.Covariance

module Cov_tree = View_tree.Make (Payload.Cov)
module Float_tree = View_tree.Make (Payload.Float)

type strategy = F_ivm | Higher_order | First_order

(* Observability ([fivm.*]): update/delta volumes plus view/storage sizes,
   the quantities behind Figure 4 (right)'s throughput differences. *)
let c_updates = Obs.counter "fivm.updates"
let c_delta_tuples = Obs.counter "fivm.delta_tuples"
let c_batches = Obs.counter "fivm.batches"
let g_view_rows = Obs.gauge "fivm.view_rows"
let g_storage_tuples = Obs.gauge "fivm.storage_tuples"

let strategy_name = function
  | F_ivm -> "F-IVM"
  | Higher_order -> "higher-order IVM"
  | First_order -> "first-order IVM"

type state =
  | Fivm of { task : Cov_task.t; storage : Storage.t; tree : Cov_tree.t }
  | Higher of {
      task : Cov_task.t;
      storage : Storage.t;
      aggs : (int * int) array;
      trees : Float_tree.t array;
    }
  | First of {
      task : Cov_task.t;
      storage : Storage.t;
      aggs : (int * int) array;
      totals : float array;
    }

(* [schema] is the (empty) database the maintainer was created over; it is
   never written, only cloned by {!snapshot} so relation order — and with it
   the join tree and LMFAO's accumulation order — survives a snapshot. *)
type t = { schema : Database.t; state : state }

(* Each node lifts over the features its relation owns. *)
let cov_tree (task : Cov_task.t) storage =
  Cov_tree.create storage ~lift:(fun node ->
      let name = Storage.name node in
      (Cov_task.owned_indices task name, Cov_task.lift_owned_into task name (Storage.cells node)))

let create strategy (db : Database.t) ~features =
  let task = Cov_task.make db ~features in
  let storage = Storage.create db in
  let state =
    match strategy with
    | F_ivm ->
        Fivm { task; storage; tree = cov_tree task storage }
    | Higher_order ->
        let aggs = Cov_task.aggregate_pairs task in
        let trees =
          Array.map
            (fun pair ->
              Float_tree.create storage ~lift:(fun node ->
                  let factor = Cov_task.factor task pair (Storage.name node) in
                  let cells = Storage.cells node in
                  ((), fun r ~into -> Payload.Float.set into (factor cells r))))
            aggs
        in
        Higher { task; storage; aggs; trees }
    | First_order ->
        let aggs = Cov_task.aggregate_pairs task in
        First { task; storage; aggs; totals = Array.make (Array.length aggs) 0.0 }
  in
  { schema = db; state }

(* Delta-join evaluation for first-order IVM: the sum, over all extensions
   of the updated tuple (row [r] of [n], staged) to full join results, of
   the aggregate's factor product times the stored multiplicities. Walks
   the join tree's adjacency via the storage indexes (index nested-loop
   join), each bucket newest first. *)
let delta_join_sum storage task pair n r m =
  let rec expand n r visited =
    let name = Storage.name n in
    let local = Cov_task.factor task pair name (Storage.cells n) r in
    List.fold_left
      (fun acc neighbour ->
        if List.mem neighbour visited then acc
        else begin
          let e = Storage.edge n ~neighbour in
          let partner = Storage.node storage neighbour in
          let back = Storage.edge partner ~neighbour:name in
          let p = Storage.edge_packed e r in
          let rec sum r' s =
            if r' < 0 then s
            else
              sum (Storage.next back r')
                (s
                +. float_of_int (Storage.row_multiplicity partner r')
                   *. expand partner r' (name :: visited))
          in
          acc
          *. sum
               (Storage.first back p (if p = Keypack.nopack then Storage.edge_tuple e r else [||]))
               0.0
        end)
      local (Storage.neighbours n)
  in
  float_of_int m *. expand n r []

let storage t =
  match t.state with
  | Fivm { storage; _ } | Higher { storage; _ } | First { storage; _ } -> storage

(* The update is unboxed once, into its relation's staging row, which the
   strategy reads before the storage applies it. *)
let apply t (u : Delta.update) =
  Obs.incr c_updates;
  Obs.add c_delta_tuples (abs u.multiplicity);
  let storage = storage t in
  let n = Storage.node storage u.relation in
  let r = Storage.stage n u.tuple in
  let m = u.multiplicity in
  (match t.state with
  | Fivm { tree; _ } -> Cov_tree.delta tree n r m
  | Higher { trees; _ } -> Array.iter (fun tree -> Float_tree.delta tree n r m) trees
  | First { task; aggs; totals; _ } ->
      Array.iteri
        (fun k pair -> totals.(k) <- totals.(k) +. delta_join_sum storage task pair n r m)
        aggs);
  Storage.apply_staged storage n m

(* A fresh triple: the root buffers are the trees' own and change under
   later updates. *)
let covariance t : Cov.t =
  match t.state with
  | Fivm { tree; _ } -> Array.copy (Cov_tree.result tree)
  | Higher { task; aggs; trees; _ } ->
      Cov_task.assemble task
        (Array.to_list
           (Array.mapi
              (fun k pair -> (pair, Payload.Float.get (Float_tree.result trees.(k))))
              aggs))
  | First { task; aggs; totals; _ } ->
      Cov_task.assemble task
        (Array.to_list (Array.mapi (fun k pair -> (pair, totals.(k))) aggs))

let features t =
  match t.state with
  | Fivm { task; _ } | Higher { task; _ } | First { task; _ } ->
      Array.to_list task.Cov_task.features

let strategy_of t =
  match t.state with
  | Fivm _ -> F_ivm
  | Higher _ -> Higher_order
  | First _ -> First_order

(* Current contents as a fresh [Database.t]: empty clones of the schema
   relations, each filled after [Database.create] (so nothing reorders
   them) with its storage rows copied out column by column, in insertion
   order. Order preservation keeps LMFAO's accumulation order — and so its
   float results — deterministic for a given stream. *)
let snapshot t : Database.t =
  let rels =
    List.map
      (fun r -> Relation.create ~capacity:1 (Relation.name r) (Relation.schema r))
      (Database.relations t.schema)
  in
  let db = Database.create (Database.name t.schema) rels in
  let storage = storage t in
  List.iter
    (fun rel ->
      let cols, size = Storage.columns (Storage.node storage (Relation.name rel)) in
      Relation.install rel cols size)
    rels;
  db

(* ---- checkpoint hooks (used by lib/resilience) ----

   A view dump carries the EXACT accumulated payload floats of the strategy's
   maintained state; restoring it into a maintainer whose storage holds the
   same contents reproduces the state bit-identically (recomputation would
   re-associate float additions and drift in the last ulps). Dumps hold
   their own copies of the trees' buffers, in both directions.

   F-IVM triples are dumped at the task's full dimension, +0.0 outside
   their node's features, so the bytes do not depend on how a node stores
   them; a dump with a nonzero cell outside its node's features (or a node
   this tree does not have) does not fit. *)

type view_dump =
  | Cov_views of (string * (Relational.Keypack.key * Cov.t) list) list
  | Float_views of (string * (Relational.Keypack.key * float) list) list array
  | Totals of float array

let map_dump f =
  List.map (fun (name, entries) -> (name, List.map (fun (k, p) -> (k, f p)) entries))

let dump_views t =
  match t.state with
  | Fivm { task; tree; _ } ->
      Cov_views (Cov_tree.export tree (fun shape p -> Cov.embed task.dim shape p))
  | Higher { trees; _ } ->
      Float_views (Array.map (fun tree -> Float_tree.export tree (fun () -> Payload.Float.get)) trees)
  | First { totals; _ } -> Totals (Array.copy totals)

(* An F-IVM dump restricted to each node's features, or [None]. *)
let restrict_dump (task : Cov_task.t) tree d =
  let exception Misfit in
  let restrict shape (k, p) =
    if Array.length p <> 1 + task.dim + (task.dim * task.dim) then raise Misfit;
    match Cov.restrict shape p with Some p -> (k, p) | None -> raise Misfit
  in
  let node (name, entries) =
    match Cov_tree.shape_of tree name with
    | Some shape -> (name, List.map (restrict shape) entries)
    | None -> raise Misfit
  in
  match List.map node d with d -> Some d | exception Misfit -> None

let dump_fits t dump =
  match (t.state, dump) with
  | Fivm { task; tree; _ }, Cov_views d -> Option.is_some (restrict_dump task tree d)
  | Higher { trees; _ }, Float_views ds -> Array.length ds = Array.length trees
  | First { totals; _ }, Totals ts -> Array.length ts = Array.length totals
  | _ -> false

let restore_views t dump =
  if not (dump_fits t dump) then invalid_arg "Maintainer.restore_views: the dump does not fit";
  match (t.state, dump) with
  | Fivm { task; tree; _ }, Cov_views d ->
      Cov_tree.import tree (Option.get (restrict_dump task tree d))
  | Higher { trees; _ }, Float_views ds ->
      Array.iteri (fun i d -> Float_tree.import trees.(i) (map_dump Payload.Float.make d)) ds
  | First { totals; _ }, Totals ts -> Array.blit ts 0 totals 0 (Array.length ts)
  | _ -> assert false (* [dump_fits] pairs each strategy with its dump *)

(* Fault-injection hook: corrupt the maintained state in place (WITHOUT
   touching base storage) so that an audit against {!recompute} fails. Only
   reachable from the resilience layer's fault harness and tests. *)
let perturb t x =
  match dump_views t with
  | Cov_views d ->
      (* the dump holds copies: bump each triple's count (cell 0) in place *)
      List.iter (fun (_, es) -> List.iter (fun (_, e) -> e.(0) <- Cov.count e +. x) es) d;
      restore_views t (Cov_views d)
  | Float_views ds ->
      if Array.length ds > 0 then begin
        ds.(0) <- map_dump (fun v -> v +. x) ds.(0);
        restore_views t (Float_views ds)
      end
  | Totals ts ->
      if Array.length ts > 0 then begin
        ts.(0) <- ts.(0) +. x;
        restore_views t (Totals ts)
      end

let view_rows t =
  let sum sizes = List.fold_left (fun acc (_, n) -> acc + n) 0 sizes in
  match t.state with
  | Fivm { tree; _ } -> sum (Cov_tree.view_sizes tree)
  | Higher { trees; _ } ->
      Array.fold_left (fun acc tree -> acc + sum (Float_tree.view_sizes tree)) 0 trees
  | First _ -> 0

let entry_floats t =
  match t.state with
  | Fivm { tree; _ } ->
      List.map
        (fun (name, entries) -> (name, List.sort_uniq compare (List.map snd entries)))
        (Cov_tree.export tree (fun _ p -> Array.length p))
  | Higher _ | First _ -> []

(* One delta batch inside a span, with the view/storage size gauges
   refreshed once at the end (refreshing them per update would cost more
   than the updates themselves for the higher-order strategy). *)
let apply_batch t (us : Delta.update list) =
  let strategy = strategy_of t in
  Obs.with_span ("fivm.batch:" ^ strategy_name strategy) @@ fun () ->
  Obs.incr c_batches;
  List.iter (apply t) us;
  if Obs.is_enabled () then begin
    Obs.set_gauge g_view_rows (float_of_int (view_rows t));
    Obs.set_gauge g_storage_tuples (float_of_int (Storage.total_tuples (storage t)))
  end

(* Reference: recompute the covariance triple from scratch over the current
   storage contents (used by tests and drift checks). *)
let recompute t : Cov.t =
  match t.state with
  | Fivm { tree; _ } -> Cov_tree.recompute tree
  | Higher { task; aggs; trees; _ } ->
      Cov_task.assemble task
        (Array.to_list
           (Array.mapi
              (fun k pair -> (pair, Payload.Float.get (Float_tree.recompute trees.(k))))
              aggs))
  | First { task; storage; _ } ->
      (* a temporary F-IVM tree shape for recomputation *)
      Cov_tree.recompute (cov_tree task storage)
