(* Monotonic wall clock (C stub over clock_gettime, gettimeofday fallback).
   The origin is unspecified; only differences between readings are
   meaningful. *)

external now : unit -> float = "obs_monotonic_s"
