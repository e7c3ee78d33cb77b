(** Hostile-stream scenario cells: one (dataset x stream-shape) pair from
    {!Datagen.Stream_gen.hostile} driven through every layer of the stack —
    F-IVM maintenance under all three strategies, sharded maintenance,
    crash/recovery, aggregate serving, model serving, and out-of-core
    streamed evaluation — each layer checked by a BIT-identity differential
    against an independent oracle (hostile streams live on the dyadic float
    lattice, where covariance-ring arithmetic is exact).

    Counters: [scenario.cells], [scenario.checks], [scenario.failures],
    [scenario.updates], [scenario.deletes]. Span: [scenario.cell]. *)

(** {1 The shared audits}

    One implementation of each differential, used by the scenario cells,
    the CLI's [--check] modes, the benches and the tests. *)

val serve_audit : Serve.t -> Aggregates.Batch.t -> bool * bool
(** Serve [batch] twice (a miss or refreshed hit, then a cached hit) and
    compare each answer, bitwise and in canonical order
    ({!Aggregates.Spec.sort_keyed}), against a fresh [Lmfao.Engine.eval]
    of the server's snapshot. Returns the two verdicts. *)

val model_audit :
  probes:(string -> Relational.Value.t) list -> Serve.t -> string -> (unit, string) result
(** Refresh the served model [name] to the current epoch and compare it
    with a cold retrain over a from-scratch recompute of the server's
    triple, per {!Ml.Models.refresh_audit}: encoded parameters bit for bit,
    or predictions at every probe within the model's tolerance or derived
    bound. The error says what diverged, including a served epoch behind
    the data. *)

val zero_residue_rows : Fivm.Maintainer.t -> int
(** F-IVM view entries holding an exactly-zero payload (0 for the other
    strategies). Cancelled groups must vanish, so this must stay 0. *)

val with_temp_dir : (string -> 'a) -> 'a
(** Run with a fresh temporary directory, removed recursively afterwards
    (also on an exception). *)

(** {1 Scenario cells} *)

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
