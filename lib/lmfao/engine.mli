(** LMFAO: Layered Multiple Functional Aggregate Optimisation (Sections 1.4
    and 4). Evaluates a batch of SUM-PRODUCT / GROUP BY / filter aggregates
    over the natural join of a database without materialising the join:
    multi-root decomposition over the join tree, deduplication of
    identical partial aggregates per directed view across all roots
    (sharing), view groups — one scan computes every view over a relation
    that it can, so each relation is scanned at most twice per batch, and
    the largest relation's edge with its largest neighbour runs by key
    blocks, scanning the largest once — and optional chunked domain
    parallelism.

    The entry point is {!eval}; {!compile} and {!run} are its two stages
    (plan and merge into view groups; then execute). When observability
    is on ({!Obs}), planning runs under the [lmfao.compile.plan] span,
    execution under [lmfao.compile.exec] with one flat [lmfao.view:<R>]
    span per scan and one [lmfao.merge:<N>,<C>] span per merged step
    ({!Exec.run}), and the engine maintains the [lmfao.views] /
    [lmfao.partials] / [lmfao.shared_away] (merged views and their slots),
    [lmfao.tuples_scanned] and [lmfao.roots] (root views) counters. *)

open Relational
module Spec = Aggregates.Spec
module Batch = Aggregates.Batch

exception Unsupported of string
(** Raised for filters that do not decompose per attribute (e.g. additive
    inequalities — see [Ml.Inequality] / [Ml.Svm] for those). *)

type options = {
  share : bool;  (** dedup identical partial aggregates (default true) *)
  parallel : bool;  (** chunked scans *)
  multi_root : bool;  (** per-aggregate root choice (default true) *)
  chunk_threshold : int;  (** parallel scans only above this cardinality *)
}

val default_options : options

type stats = Plan.stats = {
  mutable views : int;  (** merged directed views computed *)
  mutable partials : int;  (** distinct partial aggregates across all views *)
  mutable shared_away : int;
      (** batch restrictions collapsed by dedup, within and across roots *)
}

val compile :
  ?options:options -> Database.t -> Batch.t -> Plan.grouped * stats
(** Plan the batch (one rooted plan per multi-root group) and merge the
    rooted plans into scheduled view groups ({!Plan.group}); returns the
    plan {!run} executes, with the merged plan's statistics. Counts
    [lmfao.compile.plans].
    @raise Join_tree.Cyclic on cyclic schemas
    @raise Unsupported on non-decomposable filters *)

val run :
  ?options:options -> Database.t -> Plan.grouped -> (string * Spec.result) list
(** Execute a compiled plan against a database whose schema and multi-root
    assignment still match the one it was compiled for; its schedule came
    from the cardinalities at compile time and affects only time and
    memory. Grouped results list their groups in
    [Faggregate.Grouped.Key.compare] order. *)

type result = {
  keyed : (string * Spec.result) list;  (** results keyed by aggregate id *)
  table : (string, Spec.result) Hashtbl.t Lazy.t;
      (** the same results as a lookup table, built on first force *)
  stats : stats;
}

val eval :
  ?options:options ->
  ?on_cyclic:[ `Raise | `Materialize ] ->
  Database.t ->
  Batch.t ->
  result
(** Evaluate the whole batch: {!compile}, then {!run}. [on_cyclic] selects
    the behaviour on cyclic schemas: [`Raise] (default) propagates
    [Join_tree.Cyclic]; [`Materialize] falls back to materialising the join
    with {!Factorized.Wcoj} and evaluating the batch flat (the paper's
    footnote-4 bag materialisation). On that path [result.stats] reflects
    the actual work — one materialised view, one flat pass per aggregate,
    nothing shared — and the [lmfao.cyclic_fallback] counter is bumped.
    @raise Unsupported on non-decomposable filters
    @raise Join_tree.Cyclic on cyclic schemas with [on_cyclic = `Raise] *)

(** {1 Engine_intf}

    [Engine] satisfies {!Aggregates.Engine_intf.S}, so it can be packed into
    a first-class-module engine list. *)

val name : string
val description : string

val eval_batch :
  ?options:options -> Database.t -> Batch.t -> (string * Spec.result) list
(** [(eval ~on_cyclic:`Materialize db batch).keyed]. *)
