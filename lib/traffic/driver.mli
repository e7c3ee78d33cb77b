(** Virtual-time execution of an open-loop {!Workload} event list against a
    {!Serve.Admission} frontier.

    The driver owns the clock and [lanes] serving lanes (default
    [Util.Pool.num_domains ()]): queueing is simulated on the virtual
    timeline while engine work is measured in real wall-clock seconds, so
    overload behaviour is reproducible without sleeping. Delta batches flow
    through the admission layer's coalescing queue, flushed every
    [flush_interval] virtual seconds and on backpressure; each flush is the
    single-writer barrier and stalls every lane for its measured duration.

    Check mode audits every answered request against a from-scratch
    [Lmfao.Engine.eval] reference captured while the answer's epoch was
    current: [Fresh e] must match the current epoch's reference, [Stale e]
    must be the answer epoch [e] actually served, bit for bit (sound on
    dyadic-lattice inputs). *)

type report = {
  offered : int;
  admitted : int;  (** fresh answers within deadline *)
  shed : int;  (** degraded [Stale] answers *)
  timeout : int;  (** no answer: late, retries exhausted, or nothing to shed *)
  flushes : int;
  backpressure : int;  (** submissions refused by the full delta queue *)
  retries : int;  (** transient-fault retries across all requests *)
  coalesced : int;  (** updates eliminated by coalescing *)
  dropped_deltas : int;  (** delta batches larger than the whole queue *)
  p50 : float;  (** exact order statistics over per-request latency;
                    independent of (and cross-checkable against) the
                    [serve.latency] histogram *)
  p95 : float;
  p99 : float;
  max_latency : float;
  checked : int;  (** answers audited in check mode *)
  errors : string list;  (** first 20 audit failures *)
  error_count : int;
}

val run :
  ?lanes:int ->
  ?flush_interval:float ->
  ?check:bool ->
  Serve.Admission.a ->
  catalog:Aggregates.Batch.t array ->
  events:Workload.event list ->
  report
(** Process [events] in arrival order. [offered = admitted + shed + timeout]
    holds by construction; the same invariant over the [serve.*] counters is
    what [borg traffic --check] verifies end to end. *)
