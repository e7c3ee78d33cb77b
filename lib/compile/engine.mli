(** A fingerprint-keyed cache of LMFAO plans: {!Lmfao.Engine.compile}
    (planning into {!Lmfao.Plan.grouped} view groups) once per batch
    shape, {!Lmfao.Engine.run} per call. Cached runs are bitwise
    equal to a fresh {!Lmfao.Engine.eval}; cyclic schemas fall back to
    {!Lmfao.Engine.eval_batch} (counted in [lmfao.compile.cyclic]). *)

open Relational
module Spec = Aggregates.Spec
module Batch = Aggregates.Batch

type options = Lmfao.Engine.options

val default_options : options

type compiled
(** A compiled batch: its {!Lmfao.Plan.grouped} plan, tagged with the
    batch itself and a plan signature. *)

val compile : ?options:options -> Database.t -> Batch.t -> compiled
(** Compile without consulting the cache ({!Lmfao.Engine.compile}: counts
    [lmfao.compile.plans]; runs under the [lmfao.compile.plan] span).
    @raise Join_tree.Cyclic on cyclic schemas
    @raise Lmfao.Plan.Unsupported on non-decomposable filters *)

val run : compiled -> Database.t -> (string * Spec.result) list
(** Execute a compiled batch against a database (which must still match
    the plan signature — see {!reusable}). *)

val reusable : compiled -> ?options:options -> Database.t -> Batch.t -> bool
(** Whether a cached plan may serve this (db, batch, options): the batch
    ({!Batch.equal}: a plan answers under its own batch's ids), the
    options, and the plan signature — schema shape plus the
    cardinality-dependent multi-root assignment — all still match. *)

val find_or_compile : ?options:options -> Database.t -> Batch.t -> compiled
(** Consult the global fingerprint-keyed plan cache (a hit needs an equal
    batch and options and a matching signature; hits count
    [lmfao.compile.cache_hits]), compiling on miss.
    The cache holds at most {!cache_capacity} plans: a miss on a full
    cache evicts the least recently used plan, counted in
    [lmfao.compile.cache_evictions]. Thread-safe.
    @raise Join_tree.Cyclic on cyclic schemas *)

val cache_capacity : int
(** 64 plans. *)

val cache_size : unit -> int
(** Plans in the cache now. *)

val eval_batch :
  ?options:options -> Database.t -> Batch.t -> (string * Spec.result) list
(** {!find_or_compile} then {!run}; cyclic schemas fall back to
    {!Lmfao.Engine.eval_batch}. *)
