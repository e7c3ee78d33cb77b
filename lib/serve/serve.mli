(** Concurrent aggregate AND model serving over {!Lmfao.Engine} with an
    epoch-invalidated result cache kept fresh by {!Fivm.Maintainer}.

    Batches are cached under [(Batch.fingerprint, epoch)], and a hit also
    requires the cached batch to equal the request ({!Batch.equal}): every
    delta batch
    advances the atomic epoch, then either refreshes cache entries in place
    (batches made entirely of maintained covariance-triple coordinates —
    COUNT / SUM(x) / SUM(x^2) / SUM(x*y) over the features, unfiltered,
    ungrouped) or drops them so the next request recomputes from a storage
    snapshot. Under exact arithmetic, refreshed and recomputed results are
    bit-identical (the serving differential in [test_serve.ml]).

    {!Model} extends the same loop to learned models: registered
    {!Ml.Model_intf} implementations train from the maintained triple and
    are refreshed (warm-started) by [apply_deltas] whenever their staleness
    budget would otherwise be exceeded, so predictions carry an epoch tag at
    most [max_staleness] behind the data.

    Reads may run as concurrent clients on {!Util.Pool} tasks under the
    process-global worker budget; delta application is single-writer and
    must not overlap reads. Counters [serve.hits] / [serve.misses] /
    [serve.invalidations] / [serve.refreshes] / [serve.clients_clamped] /
    [serve.model_refreshes] / [serve.model_predictions] and spans
    [serve.request] / [serve.apply] are maintained when {!Obs} is enabled;
    {!stats} is always live. *)

open Relational
module Spec := Aggregates.Spec

type t

exception Concurrent_writer of string
(** Raised by {!apply_deltas}, {!Model.register} and {!Model.refresh} when
    another writer is already in flight: the single-writer contract is
    enforced, not just documented — overlap is a caller bug surfaced loudly
    instead of silent maintainer/model corruption. *)

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  refreshes : int;
  clients_clamped : int;
      (** [serve_many] calls whose requested client count exceeded the
          worker budget (the pool runs the excess inline — detectable
          oversubscription, not a silent cap) *)
  model_refreshes : int;
  model_predictions : int;
}

val create :
  ?options:Lmfao.Engine.options ->
  Fivm.Maintainer.strategy ->
  Database.t ->
  features:string list ->
  t
(** A server over an initially EMPTY database with the given schemas (the
    same contract as {!Fivm.Maintainer.create}); [features] are the numeric
    attributes of the maintained covariance task. [options] configure the
    recompute engine (e.g. [parallel]). *)

val serve : t -> Aggregates.Batch.t -> (string * Spec.result) list
(** Answer one batch: a cache hit returns the stored result without engine
    work; a miss evaluates the batch with {!Lmfao.Engine.eval} over a
    snapshot of the current contents and caches it at the epoch observed
    before the computation. Results are in batch-aggregate order regardless
    of how they were produced (the engine groups by decomposition root;
    refreshes rebuild in batch order). *)

val serve_many :
  ?clients:int -> t -> Aggregates.Batch.t list -> (string * Spec.result) list list
(** [serve] each batch as a parallel pool task ([clients] bounds the domain
    count, default [Pool.num_domains ()]; the global budget caps actual
    spawns). Results in input order. A request for more clients than the
    budget can grant bumps [stats.clients_clamped] and the
    [serve.clients_clamped] counter. *)

val apply_deltas : t -> Fivm.Delta.update list -> unit
(** Apply one delta batch through the maintainer, advance the epoch, refresh
    every covariance-backed cache entry from the maintained triple and drop
    the rest, then warm-refresh every registered model whose staleness
    budget the new epoch would exceed. Single-writer: do not overlap with
    reads; overlapping another writer raises {!Concurrent_writer}. *)

(** Epoch-fresh model serving: register a {!Ml.Model_intf} implementation,
    get it trained from the maintained triple and refreshed (warm-started)
    on delta application, and serve predictions tagged with the epoch the
    parameters were trained at. *)
module Model : sig
  val register :
    ?name:string -> ?max_staleness:int -> t -> Ml.Model_intf.t ->
    response:string -> string
  (** Train the initial parameters from the current triple and register
      under [name] (default: the model's own name; returned). [response]
      must be one of the maintainer's features. [max_staleness] (default 0)
      is the number of epochs the model may lag the data before
      [apply_deltas] must refresh it. Single-writer, like [apply_deltas].
      Raises on duplicate names and unknown responses. *)

  val predict : t -> string -> (string -> Value.t) -> float * int
  (** Prediction by attribute lookup plus the epoch tag of the parameters
      used (at most [max_staleness] behind {!epoch}). *)

  val packed : t -> string -> Ml.Model_intf.packed * int
  (** The served parameters with their epoch tag. *)

  val refresh : t -> string -> unit
  (** Force a warm refresh to the current epoch outside [apply_deltas]
      (freshness on demand); no-op when already current. Single-writer. *)

  val names : t -> string list
  val epoch_of : t -> string -> int
  val spec_of : t -> string -> Ml.Model_intf.t
  val response_of : t -> string -> string
end

(** Overload-robust admission frontier around the read/write paths:
    per-tenant token buckets plus a global queue-delay gate, per-request
    deadlines with timeout classification, load shedding that answers from
    an epoch-stale shadow cache with an explicit [Stale of epoch] tag (a
    shed answer is always bit-identical to some past epoch's correct
    answer — never a wrong bit), transient-fault retries with full-jitter
    backoff, and a bounded delta queue that coalesces updates per
    (relation, tuple) into one maintainer pass.

    Time is virtual and caller-owned: {!request} takes the arrival instant
    and the instant the serving lane frees, and returns the finish instant;
    only engine work is measured in real wall-clock seconds and folded into
    the virtual timeline (the open-loop harness in [Traffic] avoids
    coordinated omission this way). Counters: [serve.offered] =
    [serve.admitted] + [serve.shed] + [serve.timeout] is a hard invariant;
    [serve.coalesced], [serve.retries], [serve.backpressure] and the
    [serve.latency] histogram (observed exactly once per request) complete
    the picture. *)
module Admission : sig
  type status =
    | Fresh of int  (** answered at the current epoch, within deadline *)
    | Stale of int
        (** shed: answered from the shadow cache, bit-identical to the
            answer served at that epoch *)
    | Timeout
        (** no answer: deadline exceeded, retry budget exhausted, or shed
            with no stale entry to degrade to *)

  type outcome = {
    status : status;
    result : (string * Spec.result) list option;
        (** [Some] iff status is [Fresh] or [Stale] *)
    started : float;  (** when a lane picked the request up (virtual) *)
    finished : float;  (** when the lane freed again (virtual) *)
    latency : float;  (** [finished - arrival]; 0 for lane-free outcomes *)
    retries : int;
    used_lane : bool;
        (** whether lane time was consumed (the driver advances the lane's
            free instant to [finished] only when set) *)
  }

  type config = {
    tenant_rate : float;
    tenant_burst : float;
    gate_delay : float;
    deadline : float;
    max_pending : int;
    max_retries : int;
    backoff_base : float;
    backoff_cap : float;
    faults : Resilience.Faults.t;
    seed : int;
  }

  val config :
    ?tenant_rate:float ->
    ?tenant_burst:float ->
    ?gate_delay:float ->
    ?deadline:float ->
    ?max_pending:int ->
    ?max_retries:int ->
    ?backoff_base:float ->
    ?backoff_cap:float ->
    ?faults:Resilience.Faults.t ->
    ?seed:int ->
    unit ->
    config
  (** Defaults: 100 req/s per tenant with burst 20, 50 ms gate, 250 ms
      deadline, 4096 pending updates, 4 retries, backoff 0.1→10 ms, no
      faults, seed 0. *)

  type a

  val create : config -> t -> a
  val server : a -> t

  val request :
    a ->
    tenant:string ->
    batch:Aggregates.Batch.t ->
    arrival:float ->
    lane_free:float ->
    outcome
  (** Resolve one read. Over-quota tenants and requests whose queue delay
      ([max arrival lane_free - arrival]) exceeds the gate are denied engine
      time and answered from the shadow cache ([Stale]) or dropped
      ([Timeout]); admitted requests run {!serve} (transient faults retried
      with jittered backoff), are timed, and are classified [Fresh] or
      [Timeout] against the deadline. Exactly one of
      [serve.admitted]/[serve.shed]/[serve.timeout] is incremented. *)

  val submit_delta :
    a -> Fivm.Delta.update list -> [ `Queued | `Backpressure ]
  (** Queue updates for the next {!flush}; [`Backpressure] (and the
      [serve.backpressure] counter) once the bounded queue is full — the
      caller must flush before retrying. *)

  val flush : a -> int
  (** Coalesce all pending updates (multiplicities summed per
      (relation, tuple), zero sums dropped, first-occurrence order) into at
      most one {!apply_deltas} pass. Returns the number of updates
      eliminated by coalescing (also added to [serve.coalesced]).
      Single-writer, like {!apply_deltas}. *)

  val pending_updates : a -> int
end

val snapshot : t -> Database.t
(** The current database contents as a fresh [Database.t] (storage dump
    replayed in insertion order) — what a cache miss evaluates over. *)

val maintainer : t -> Fivm.Maintainer.t
val epoch : t -> int
val cache_size : t -> int
val stats : t -> stats
