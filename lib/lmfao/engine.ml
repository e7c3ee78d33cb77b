(* LMFAO: Layered Multiple Functional Aggregate Optimisation (Sections 1.4
   and 4).

   Evaluates a batch of SUM-PRODUCT aggregates over the natural join of a
   database without materialising the join:

   - Each aggregate is decomposed top-down over a join tree: node N is
     assigned the restriction of the aggregate to the attributes owned by
     N's subtree; a subtree containing none of the aggregate's attributes is
     assigned a plain count (the paper's decomposition scheme).
   - Restrictions that coincide across the batch are computed ONCE per
     directed view (partial-aggregate sharing), also across roots: every
     root's view of relation X toward neighbour Y is one merged view.
   - All the views over one relation share one scan (view groups): an up
     pass toward the largest relation C, then a down pass, so each
     relation is scanned at most twice per batch. The edge between C and
     its largest neighbour N runs as one loop over key blocks: N->C and
     C->N, the batch's two largest views, hold one block's keys at a time
     and never exist in full, and C is scanned once.
   - Each aggregate is decomposed starting from the smallest relation
     holding one of its group-by attributes or terms (multi-root
     decomposition): its products are summed over a small relation, and
     a grouped aggregate's group key is pushed down the join tree rather
     than its terms pushed up through the fact table's views.
   - Scans can be chunked across domains (Section 4, "Parallelisation").

   One pipeline of two stages evaluates every batch: [Plan] decides the
   decomposition (restriction, sharing, root choice, ownership), merges
   and schedules the views and hoists each view's shared filter
   conjuncts, and [Exec] binds that plan to the live columns and scans.
   [compile] and [run] are the two stages, so that [Compile.Engine] can
   cache plans across calls. *)

open Relational
module Spec = Aggregates.Spec
module Batch = Aggregates.Batch

exception Unsupported = Plan.Unsupported

type options = {
  share : bool; (* dedup identical partial aggregates (default true) *)
  parallel : bool; (* chunked scans *)
  multi_root : bool; (* per-aggregate roots by [Plan.choose_root]; off: the largest relation *)
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

(* The rooted plans of every multi-root group, merged into one scheduled
   plan of view groups, with the merged plan's statistics. *)
let compile ?(options = default_options) (db : Database.t) (batch : Batch.t) :
    Plan.grouped * stats =
  Obs.with_span "lmfao.compile.plan" @@ fun () ->
  Obs.incr c_plans;
  let popts = plan_options options in
  let jt, groups = Plan.group_by_root popts db batch in
  let per_root = Plan.fresh_stats () in
  let rooted =
    List.map (fun (root, specs) -> Plan.build popts ~stats:per_root jt ~root specs) groups
  in
  Plan.group jt ~stats:per_root rooted

let run ?(options = default_options) (db : Database.t) (plan : Plan.grouped) :
    (string * Spec.result) list =
  Obs.with_span "lmfao.compile.exec" @@ fun () ->
  Exec.run ~parallel:options.parallel ~chunk_threshold:options.chunk_threshold db
    plan

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
        Seq.iter
          (fun c ->
            for i = 0 to Relation.cardinality c - 1 do
              Relation.append_from out c i
            done;
            chunks.Database.release c)
          chunks.Database.seq;
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
