(** Sharded resilient maintenance: one {!Driver} (WAL + checkpoints +
    recovery) per shard of a {!Fivm.Shard.plan}, each under its own
    subdirectory [dir/shard-<k>], maintained in parallel on [Util.Pool]
    tasks. Recovery is per shard: rebuilding shard [k] restores shard
    [k]'s newest checkpoint and replays only shard [k]'s WAL tail — the
    other shards keep serving. Injected crashes ({!Faults.Crash}) are
    caught inside the owning shard's task, which recreates its driver
    (recovering from disk) and resumes its queue from the recovered
    sequence number. *)

open Fivm

type t

val create :
  ?checkpoint_every:int ->
  ?audit_every:int ->
  ?audit_eps:float ->
  ?max_retries:int ->
  ?max_restarts:int ->
  ?faults:(int -> Faults.t) ->
  dir:string ->
  plan:Shard.plan ->
  (unit -> Maintainer.t) ->
  t
(** One driver per shard of [plan], each recovering from [dir/shard-<k>]
    on creation. [faults k] supplies shard [k]'s fault plan (default: no
    faults); the same plans are reused across in-task driver recreations,
    so one-shot crash events fire once per shard. [max_restarts] (default
    8) bounds crash recoveries per shard per batch. Other options are the
    {!Driver.config} knobs, applied to every shard. *)

val shards : t -> int
val plan_of : t -> Shard.plan

val submit_batch : ?domains:int -> t -> Delta.update list -> unit
(** Partition the batch by the plan and run every shard's submit loop in
    parallel inside a [resilience.shard.batch] span. A shard that crashes
    recovers in-task and resumes from its recovered sequence number
    (assuming the crash window holds no quarantined updates — parity with
    the single-shard restart harness). Raises [Failure] if a shard
    exhausts [max_restarts]. *)

val covariance : t -> Rings.Covariance.t
(** Per-shard driver covariances merged by {!Fivm.Shard.merge}. *)

val seq : t -> int
(** Total committed updates across shards. *)

val seqs : t -> int array
(** Per-shard committed counts. *)

val crashes : t -> int
(** Injected crashes recovered from so far (all shards). *)

val quarantined : t -> (Delta.update * string) list
(** Dead-letter lists concatenated in shard order. *)

val driver : t -> int -> Driver.t
(** Shard [k]'s current driver (tests; replaced after each recovery). *)

val checkpoint_now : t -> unit
val close : t -> unit
