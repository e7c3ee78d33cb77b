(* LMFAO: Layered Multiple Functional Aggregate Optimisation (Sections 1.4
   and 4).

   Evaluates a batch of SUM-PRODUCT aggregates over the natural join of a
   database without materialising the join:

   - Each aggregate is decomposed top-down over a join tree: node N is
     assigned the restriction of the aggregate to the attributes owned by
     N's subtree; a subtree containing none of the aggregate's attributes is
     assigned a plain count (the paper's decomposition scheme).
   - Restrictions that coincide across the batch are computed ONCE per node
     (partial-aggregate sharing) and all partials at a node share one scan
     of the node's relation (shared scans).
   - Aggregates with group-by attributes are decomposed starting from the
     relation owning their first group-by attribute (multi-root
     decomposition), keeping high-cardinality grouping local to its node.
   - Scans can be chunked across domains and independent subtrees computed
     as parallel tasks (Section 4, "Parallelisation").

   One pipeline evaluates every batch: [Plan] decides the decomposition
   (restriction, sharing, root choice, ownership), [Lower] turns each
   rooted plan into the typed physical IR, [Passes] optimise it, and
   [Exec] binds it to the live columns and scans. [compile] and [run] are
   the two halves, so that [Compile.Engine] can cache plans across calls. *)

open Relational
module Spec = Aggregates.Spec
module Batch = Aggregates.Batch

exception Unsupported = Plan.Unsupported

type options = {
  share : bool; (* dedup identical partial aggregates (default true) *)
  parallel : bool; (* chunked scans + parallel subtree tasks *)
  multi_root : bool; (* root group-by aggregates at their group attr's node *)
  chunk_threshold : int; (* parallel scans only above this cardinality *)
}

let default_options =
  { share = true; parallel = false; multi_root = true; chunk_threshold = 8192 }

let plan_options (o : options) =
  { Plan.share = o.share; multi_root = o.multi_root }

type stats = Plan.stats = {
  mutable views : int;
  mutable partials : int;
  mutable shared_away : int;
}

let c_plans = Obs.counter "lmfao.compile.plans"

(* Plan -> Lower -> Passes: one optimised rooted plan per multi-root group,
   in batch order, with the planner's statistics. *)
let compile ?(options = default_options) (db : Database.t) (batch : Batch.t) :
    Ir.rooted list * stats =
  Obs.with_span "lmfao.compile.plan" @@ fun () ->
  Obs.incr c_plans;
  let popts = plan_options options in
  let jt, groups = Plan.group_by_root popts db batch in
  let stats = Plan.fresh_stats () in
  let plans =
    List.map
      (fun (root, specs) ->
        let ir =
          Obs.with_span "lmfao.compile.lower" (fun () ->
              Lower.rooted (Plan.build popts ~stats jt ~root specs))
        in
        Obs.with_span "lmfao.compile.passes" (fun () -> Passes.pipeline ir))
      groups
  in
  (plans, stats)

let run ?(options = default_options) (db : Database.t) (plans : Ir.rooted list)
    : (string * Spec.result) list =
  Obs.with_span "lmfao.compile.exec" @@ fun () ->
  let exec =
    Exec.compute_rooted ~parallel:options.parallel
      ~chunk_threshold:options.chunk_threshold db
  in
  if options.parallel && List.length plans > 1 then
    List.concat (Util.Pool.parallel_tasks (List.map (fun p () -> exec p) plans))
  else List.concat_map exec plans

let choose_root = Plan.choose_root

(* ---------- the facade ---------- *)

type result = {
  keyed : (string * Spec.result) list;
  table : (string, Spec.result) Hashtbl.t Lazy.t;
  stats : stats;
}

let table_of keyed =
  let tbl = Hashtbl.create (List.length keyed) in
  List.iter (fun (id, r) -> Hashtbl.replace tbl id r) keyed;
  tbl

(* Cyclic fallback (the paper's Section 4 footnote: cyclic queries are
   partially evaluated to acyclic ones by materialising decomposition bags):
   materialise the full join with the worst-case optimal engine and answer
   the batch by flat evaluation over it. Stats reflect the actual work: one
   materialised view (the full join), one flat pass per aggregate, no
   sharing. *)
let c_views = Obs.counter "lmfao.views"
let c_partials = Obs.counter "lmfao.partials"
let c_tuples_scanned = Obs.counter "lmfao.tuples_scanned"
let c_cyclic_fallback = Obs.counter "lmfao.cyclic_fallback"

let eval_cyclic (db : Database.t) (batch : Batch.t) :
    (string * Spec.result) list * stats =
  Obs.with_span "lmfao.cyclic_fallback" @@ fun () ->
  Obs.incr c_cyclic_fallback;
  (* WCOJ needs resident cells: pull any streamed relation fully into
     memory first (cyclic + out-of-core is outside the streaming path). *)
  let resident r =
    match Database.stream db (Relation.name r) with
    | None -> r
    | Some chunks ->
        let out =
          Relation.create
            ~capacity:(Stdlib.max 1 (Relation.cardinality r))
            (Relation.name r) (Relation.schema r)
        in
        chunks (fun c ->
            for i = 0 to Relation.cardinality c - 1 do
              Relation.append_from out c i
            done);
        out
  in
  let join =
    Factorized.Wcoj.materialise (List.map resident (Database.relations db))
  in
  let keyed =
    List.map
      (fun (s : Spec.t) -> (s.id, Spec.eval_flat join s))
      batch.Batch.aggregates
  in
  let stats =
    { views = 1; partials = List.length batch.Batch.aggregates; shared_away = 0 }
  in
  Obs.incr c_views;
  Obs.add c_partials stats.partials;
  Obs.add c_tuples_scanned
    (Relation.cardinality join * List.length batch.Batch.aggregates);
  (keyed, stats)

let eval ?(options = default_options) ?(on_cyclic = `Raise) (db : Database.t)
    (batch : Batch.t) : result =
  Obs.with_span "lmfao.eval" @@ fun () ->
  let keyed, stats =
    match compile ~options db batch with
    | plans, stats -> (run ~options db plans, stats)
    | exception Join_tree.Cyclic when on_cyclic = `Materialize ->
        eval_cyclic db batch
  in
  { keyed; table = lazy (table_of keyed); stats }

(* ---------- Engine_intf ---------- *)

let name = "lmfao"

let description =
  "shared multi-root decomposition over the join tree (cyclic: WCOJ fallback)"

let eval_batch ?options db batch =
  (eval ?options ~on_cyclic:`Materialize db batch).keyed
