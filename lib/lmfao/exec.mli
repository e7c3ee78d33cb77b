(** Run a batch's {!Plan.grouped} against a live database, one program
    per view. Every directed view lives in {!Flat_view} storage (dense
    rows by packed key, scalar partials contiguous per row in fixed-size
    float blocks, grouped partials as per-(row, family) entry chains whose
    entries hold one value per member). Per input row a view's program
    tests each distinct local conjunct list once, computes each distinct
    term product once, runs its scalar slots as one multiply-add loop, and
    finds each family's keys once for all its members; it reads term
    columns as unboxed arrays and keys as ints, so the scan loop allocates
    nothing per row. Grouped partials are sorted once, at extraction, in
    [Faggregate.Grouped.Key.compare] order. Each member's float operations
    run in a fixed order, so results are deterministic to the bit (see the
    implementation header). *)

open Relational
module Spec = Aggregates.Spec

val run :
  parallel:bool ->
  chunk_threshold:int ->
  Database.t ->
  Plan.grouped ->
  (string * Spec.result) list
(** Execute a batch's grouped plan: run its scans in order, each under one
    [lmfao.view:<R>] span. A scan compiles each output view's program once
    and binds it to its relation once per chunk (specialising term
    columns, key readers and the [Predicate.compile_cols] filters to the
    live column representations — boxed term columns are read lazily per
    row and count in [lmfao.compile.fallbacks]), probes each incoming view
    once per row and feeds every output view whose children all matched. A
    view's scan filter gates its slots, never its key insert. A view is dropped
    after the last scan that reads it; root views are kept, and each
    output aggregate is extracted from its root view's slot, in
    [outputs] order. With [parallel], resident scans above
    [chunk_threshold] rows run in chunks merged in a fixed order. Counts
    [lmfao.roots] (root views computed), [lmfao.tuples_scanned] (rows
    read, once per scan whatever its number of views) and, per view-key
    insert, [keypack.packed] / [keypack.boxed]. *)
