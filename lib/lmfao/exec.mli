(** Stage 3: closure-compile a physical IR plan against a live database
    and run it — monomorphic column readers, pre-resolved payload offsets,
    unrolled small-arity products, zero variant dispatch in the scan loop.
    Grouped partials accumulate under packed {!Keypack} keys and are sorted
    once, at extraction, in [Faggregate.Grouped.Key.compare] order. Float
    operations run in a fixed order, so results are deterministic to the
    bit (see the implementation header). *)

open Relational
module Spec = Aggregates.Spec

val run :
  parallel:bool ->
  chunk_threshold:int ->
  Database.t ->
  Ir.grouped ->
  (string * Spec.result) list
(** Execute a batch's grouped plan: run its scans in order, each under one
    [lmfao.view:<R>] span. A scan binds its relation once per chunk
    (specialising readers, filters and kernels to the live column
    representations — term columns that are boxed or drifted since
    lowering count in [lmfao.compile.fallbacks]), probes each incoming
    view once per row and feeds every output view whose children all
    matched. A view is dropped after the last scan that reads it; root
    views are kept, and each output aggregate is extracted from its root
    view's slot, in [g_outputs] order. With [parallel], resident scans
    above [chunk_threshold] rows run in chunks merged in a fixed order.
    Counts [lmfao.roots] (root views computed) and [lmfao.tuples_scanned]
    (rows read, once per scan whatever its number of views). *)
