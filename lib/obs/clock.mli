(** Monotonic wall clock for interval measurements. Backed by
    [clock_gettime(CLOCK_MONOTONIC)] where available (Linux/macOS/BSD) with a
    [gettimeofday] fallback, so readings never jump backwards under NTP
    adjustments on the platforms we run on. *)

val now : unit -> float
(** Seconds from an unspecified origin; only differences are meaningful. *)
