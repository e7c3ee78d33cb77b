(* Wall-clock timing helpers used by the benchmark harness.

   Readings come from the observability layer's monotonic clock
   (clock_gettime(CLOCK_MONOTONIC) where available, gettimeofday fallback),
   so intervals are immune to NTP steps and agree with [Obs] span timings. *)

let now () = Obs.Clock.now ()

let time f =
  let t0 = now () in
  let result = f () in
  let t1 = now () in
  (result, t1 -. t0)

let time_only f = snd (time f)

(* Median-of-[repeats] timing with one warm-up run. Even [repeats] average
   the two middle samples. *)
let measure ?(repeats = 3) ?(warmup = true) f =
  if warmup then ignore (f ());
  let repeats = Stdlib.max 1 repeats in
  let samples = List.init repeats (fun _ -> time_only f) in
  let sorted = Array.of_list (List.sort compare samples) in
  let n = Array.length sorted in
  if n land 1 = 1 then sorted.(n / 2)
  else (sorted.((n / 2) - 1) +. sorted.(n / 2)) /. 2.0

let pp_duration ppf secs =
  if secs < 1e-6 then Format.fprintf ppf "%.0fns" (secs *. 1e9)
  else if secs < 1e-3 then Format.fprintf ppf "%.1fus" (secs *. 1e6)
  else if secs < 1.0 then Format.fprintf ppf "%.2fms" (secs *. 1e3)
  else Format.fprintf ppf "%.2fs" secs

let to_string secs = Format.asprintf "%a" pp_duration secs
