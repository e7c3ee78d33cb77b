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
    implementation header).

    The largest edge's merged step ({!Plan.merge}) runs as one loop over
    key blocks of about {!block_rows} rows of N: N->C and C->N hold one
    block's keys at a time, in two views emptied and reused per block, so
    the batch's two largest views never exist in full, and C is scanned
    once. Each view is still fed its rows in scan order and reads only
    complete partials, so the results are those of the step's four scans
    to the bit. *)

open Relational
module Spec = Aggregates.Spec

val block_rows : int
(** 1,024: the rows of N a merged step's key block starts with; a block
    then runs on to the end of its last key, so each key's rows of N and
    of C fall in one block. *)

val run :
  parallel:bool ->
  chunk_threshold:int ->
  Database.t ->
  Plan.grouped ->
  (string * Spec.result) list
(** Execute a batch's grouped plan: run its steps in order, each scan
    under one [lmfao.view:<R>] span. A scan compiles each output view's
    program once and binds it to its relation once per chunk (specialising
    term columns, key readers and the [Predicate.compile_cols] filters to
    the live column representations — boxed term columns are read lazily
    per row and count in [lmfao.compile.fallbacks]), probes each incoming
    view once per row and feeds every output view whose children all
    matched. A view's scan filter gates its slots, never its key insert. A
    view is dropped after the last scan that reads it; root views are
    kept, and each output aggregate is extracted from its root view's
    slot, in [outputs] order. With [parallel], resident scans above
    [chunk_threshold] rows run in chunks merged in a fixed order.

    A merged step runs under one [lmfao.merge:<N>,<C>] span and by key
    blocks, binding each program once per chunk (once per step for a
    resident relation), counting its blocks in [lmfao.merge_blocks]. It
    runs as one block — the four scans, each with its [lmfao.view:<R>]
    span — when its relations are not both in non-decreasing packed order
    on the edge key ([lmfao.merge_fallbacks.order]), when an edge key does
    not pack ([.unpacked]), or when N's or C's scan would be chunked
    across domains ([.parallel]); each such step adds one to
    [lmfao.merge_fallbacks]. A resident relation's order is checked in one
    pass over its key columns before the blocks start; a streamed one's as
    its chunks arrive, and the first violation drops the blocks run so far
    and runs the step as one block, reading the pages again.

    Counts [lmfao.roots] (root views computed), [lmfao.tuples_scanned]
    (rows read, once per scan whatever its number of views: 2·Σ|R| − |C|
    per batch when the merged step runs by blocks and every scan has a
    view) and, per view-key insert, [keypack.packed] / [keypack.boxed]. *)
