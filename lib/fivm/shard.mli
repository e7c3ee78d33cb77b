(** Sharded, domain-parallel F-IVM maintenance.

    Delta streams are hash-partitioned by packed partition key
    ({!Relational.Keypack.shard_of_key}) into N shards; each shard runs a
    full {!Maintainer} (storage + view trees) and shards are maintained on
    separate domains via [Util.Pool]. Per-shard covariances are merged in
    canonical shard order (shard 0 first), so the merged answer is a
    deterministic function of the stream and the shard count.

    Correctness: the partition attribute appears in every join result, and
    every tuple carrying partition value [v] routes to [shard_of v] while
    relations without the attribute are broadcast to all shards — so each
    join result is produced by exactly one shard and the per-shard
    covariance triples sum to the unsharded answer. When the payload
    arithmetic is exact (e.g. dyadic-rational features of bounded
    magnitude) the merged triple is bit-identical to the unsharded one for
    every shard count; for general floats it is deterministic for a fixed
    shard count and equal to the unsharded answer up to summation order. *)

open Relational

(** {1 Partitioning plan} *)

type plan

val plan : ?attr:string -> shards:int -> Database.t -> plan
(** Build a routing plan over the database's schemas. The partition
    attribute defaults to the attribute appearing in the most relations
    (ties: larger summed cardinality, then lexicographically first).
    Raises [Invalid_argument] if [shards < 1], or if [attr] is given but
    appears in no relation. *)

val plan_attr : plan -> string
val plan_shards : plan -> int

val route_update : plan -> Delta.update -> int option
(** [Some k] when the update's relation contains the partition attribute:
    the update affects shard [k] only. [None] when the relation lacks the
    attribute and must be broadcast to every shard. Maintains the
    [fivm.shard.routed] / [fivm.shard.broadcast] counters. *)

val partition : plan -> Delta.update list -> Delta.update list array
(** Order-preserving per-shard queues; broadcast updates are replicated
    into every queue. Applying queue [k] to shard [k] (sequentially, in
    queue order) for every [k] reproduces exactly the per-shard effects of
    applying the whole stream in order. *)

(** {1 Sharded maintainer} *)

type t

val create :
  ?attr:string ->
  Maintainer.strategy ->
  Database.t ->
  features:string list ->
  shards:int ->
  t
(** N independent maintainers over the (initially empty) database schema,
    plus the routing plan. *)

val plan_of : t -> plan
val shards : t -> int
val strategy_of : t -> Maintainer.strategy

val maintainer : t -> int -> Maintainer.t
(** Shard [k]'s underlying maintainer (tests and checkpointing). *)

val apply : t -> Delta.update -> unit
(** Route one update and apply it on the calling domain. *)

val apply_batch : ?domains:int -> t -> Delta.update list -> unit
(** Partition the batch and maintain every shard in parallel (one
    [Util.Pool] task per shard; [?domains] caps the worker count, with
    [~domains:1] running all shards inline in shard order). Runs inside an
    [fivm.shard.batch] span; updates per-shard [fivm.shard.<k>.deltas]
    counters and the [fivm.shard.skew] gauge (max/mean queue length). *)

val load_base :
  ?domains:int ->
  t ->
  relation:string ->
  (int -> (Relation.t -> unit) -> unit) ->
  unit
(** [load_base t ~relation chunks_of] streams a base relation into the
    shards: shard [k] applies every row of the chunk iterator
    [chunks_of k] as a [+1] delta to its own maintainer, one parallel task
    per shard. Pair with per-shard page directories
    ([Store.Loader.import_sharded], same [Keypack.shard_of_key] routing)
    so each domain streams only its own working set; broadcast relations
    (no partition attribute) must replay the full relation for every
    shard. Runs inside an [fivm.shard.load_base] span. *)

val merge : Rings.Covariance.t array -> Rings.Covariance.t
(** Per-shard triples folded with ring addition in shard order into a
    fresh triple, starting FROM shard 0's triple (so one part comes back
    bit for bit). The one merge of sharded results, resilient ones too. *)

val covariance : t -> Rings.Covariance.t
(** {!merge} of the shards' maintained triples, inside an
    [fivm.shard.merge] span. *)

val recompute : t -> Rings.Covariance.t
(** Merged from-scratch recomputation over per-shard storage (oracle). *)

val view_rows : t -> int
(** Total view rows across all shards. *)
