(** Stage 3: closure-compile a physical IR plan against a live database
    and run it — monomorphic column readers, pre-resolved payload offsets,
    unrolled small-arity products, zero variant dispatch in the scan loop.
    Grouped partials accumulate under packed {!Keypack} keys and are sorted
    once, at extraction, in [Faggregate.Grouped.Key.compare] order. Float
    operations run in a fixed order, so results are deterministic to the
    bit (see the implementation header). *)

open Relational
module Spec = Aggregates.Spec

val compute_rooted :
  parallel:bool ->
  chunk_threshold:int ->
  Database.t ->
  Ir.rooted ->
  (string * Spec.result) list
(** Execute one rooted plan: bind (specialise readers, filters, kernels to
    the live column representations — term columns that are boxed or
    drifted since lowering count in [lmfao.compile.fallbacks]), scan, and
    extract each output aggregate from its root slot. With [parallel],
    sibling subtrees run as pool tasks and resident scans above
    [chunk_threshold] rows run in chunks. Runs under [lmfao.root:<R>] /
    [lmfao.view:<R>] spans and counts [lmfao.roots] and
    [lmfao.tuples_scanned]. *)
