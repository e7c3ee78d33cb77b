(** Hostile-stream scenario cells: one (dataset x stream-shape) pair from
    {!Datagen.Stream_gen.hostile} driven through every layer of the stack —
    F-IVM maintenance under all three strategies, sharded maintenance,
    crash/recovery, aggregate serving, model serving, and out-of-core
    streamed evaluation — each layer checked by a BIT-identity differential
    against an independent oracle (hostile streams live on the dyadic float
    lattice, where covariance-ring arithmetic is exact).

    Counters: [scenario.cells], [scenario.checks], [scenario.failures],
    [scenario.updates], [scenario.deletes]. Span: [scenario.cell]. *)

type check = {
  layer : string;  (** one of {!layers} *)
  ok : bool;
  detail : string;  (** human-readable differential verdict *)
}

type cell = {
  dataset : string;
  shape : string;  (** {!Datagen.Stream_gen.shape_name} of the stream *)
  updates : int;  (** delta tuples pushed through each layer *)
  deletes : int;  (** how many of them were deletions *)
  checks : check list;  (** in execution order *)
}

val layers : string list
(** ["maintain"; "shard"; "resilience"; "serve"; "model"; "streamed"]. *)

val cell_ok : cell -> bool

val run_cell :
  ?seed:int ->
  ?strategies:Fivm.Maintainer.strategy list ->
  ?shards:int list ->
  ?layers:string list ->
  dataset:string ->
  shape:Datagen.Stream_gen.shape ->
  features:string list ->
  Relational.Database.t ->
  cell
(** Run one cell over a generated database (transformed and streamed by
    [Stream_gen.hostile shape]): maintain x [strategies] (default all
    three, each against its own recompute AND the F-IVM triple), shard x
    [shards] (default [{1; 4; 8}], merged and recomputed against the
    unsharded triple), crash recovery with the full damage grammar
    ([crash-after], [torn-tail], [reorder], [dup]) against a never-crashed
    run, serve (cache miss and hit against a fresh engine evaluation, mid-
    stream and at end), model (warm-refreshed linreg-closed against a cold
    retrain), and streamed (LMFAO over a paged spill of the final live set
    against in-memory). [layers] restricts which layers
    run. *)

val pp_cell : Format.formatter -> cell -> unit
