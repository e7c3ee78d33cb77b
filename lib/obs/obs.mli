(** Engine-wide observability: hierarchical spans (wall clock + minor-heap
    allocation), a process-global registry of named counters / gauges /
    histograms, a tree reporter and a JSON exporter.

    Everything is gated on one {!set_enabled} flag checked first in every
    operation, so instrumented engines pay a single load-and-branch per event
    when observability is off. Counter updates are atomic and span nesting is
    tracked per domain, so instrumentation inside [Util.Pool] workers is
    safe.

    Naming convention: [<engine>.<quantity>], e.g. [lmfao.views],
    [fivm.delta_tuples], [wcoj.seeks] (see README "Observability"). *)

module Clock : module type of Clock
module Json : module type of Json

(** {1 Enablement} *)

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run with observability forced on/off, restoring the previous state. *)

(** {1 Counters}

    Monotone event counts. Handles are interned by name: the registry lookup
    happens once at handle creation (typically module initialisation), and
    {!add} on the hot path is a branch plus an atomic add. *)

type counter

val counter : string -> counter
(** Find-or-create the counter registered under [name]. *)

val add : counter -> int -> unit
val incr : counter -> unit
val counter_value : counter -> int

val counter_value_by_name : string -> int
(** 0 for unregistered names (tests and reporters). *)

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms}

    Streaming summaries of observed values: count / sum / min / max plus a
    FIXED log-scaled bucket layout shared by every histogram — bucket 0 is
    the underflow bin (values <= 1e-9), the last bucket the overflow bin, and
    each decade of [1e-9, 1e6] in between is split into 5 geometric bins. A
    fixed layout lets snapshots from different processes aggregate and
    compare without negotiating boundaries, and supports Prometheus-style
    quantile estimation ({!histogram_quantile}). *)

type histogram

val histogram : string -> histogram
val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val bucket_count : int
(** Total number of buckets, including underflow and overflow. *)

val bucket_upper : int -> float
(** Inclusive upper bound of bucket [i]; [infinity] for the overflow
    bucket. Bucket [i] holds values in [(bucket_upper (i-1), bucket_upper i]]
    (bucket 0: [(-inf, 1e-9]]). *)

val bucket_index : float -> int
(** Index of the bucket an observation of [v] lands in. *)

type histogram_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;  (** [infinity] when empty *)
  hs_max : float;  (** [neg_infinity] when empty *)
  hs_buckets : (int * int) list;
      (** [(bucket index, count)], non-zero entries only, ascending index *)
}

val histogram_snapshot : histogram -> histogram_snapshot
(** Consistent copy of the histogram's current state (taken under the
    registry lock). *)

val histogram_snapshot_by_name : string -> histogram_snapshot option
(** [None] for unregistered names. *)

val snapshot_quantile : histogram_snapshot -> float -> float
(** [snapshot_quantile s q] estimates the [q]-quantile ([q] clamped to
    [0,1]) by walking cumulative bucket counts and interpolating linearly
    inside the target bucket, clamped to the observed [min, max]. [nan] when
    the snapshot is empty. *)

val histogram_quantile : histogram -> float -> float
(** [snapshot_quantile] of a fresh {!histogram_snapshot}. *)

val snapshot_to_json : histogram_snapshot -> Json.t
(** Export as an object with [count], [sum] and — when non-empty — [min],
    [max], [p50]/[p95]/[p99] and a [buckets] object keyed by bucket index.
    Round-trips through {!snapshot_of_json}. *)

val snapshot_of_json : Json.t -> (histogram_snapshot, string) result
(** Parse a snapshot back; tolerates extra keys (such as the exported
    quantiles) and validates that bucket counts sum to [count]. *)

(** {1 Spans} *)

type span

val with_span : string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span: wall-clock seconds via {!Clock} and
    allocation via [Gc.minor_words] are recorded on both edges, and the span
    nests under the innermost open span of the current domain (or becomes a
    report root). When disabled this is exactly [f ()]. Exceptions still
    close the span. *)

val span_name : span -> string
val span_seconds : span -> float
val span_minor_words : span -> float
val span_children : span -> span list
val spans : unit -> span list
(** Finished top-level spans, oldest first. *)

(** {1 Snapshot, report, export} *)

val reset : unit -> unit
(** Zero all counter/gauge/histogram values and drop recorded spans; the
    registered handles stay valid. *)

val counter_snapshot : unit -> (string * int) list
(** Non-zero counters, sorted by name. *)

val pp_report : Format.formatter -> unit -> unit
(** Human-readable span tree plus non-zero counters/gauges/histograms. *)

val to_json : unit -> Json.t
val json_string : unit -> string

val write_file : string -> unit
(** Write {!json_string} (newline-terminated) to a file. *)
