(* Virtual-time execution of an open-loop event list against an admission-
   controlled server.

   The driver owns the clock and the serving lanes. Each lane models one
   worker a deployment would dedicate to request service (lane count
   defaults to [Util.Pool.num_domains ()], i.e. BORG_DOMAINS); a lane is
   just the instant it next becomes free. A read is offered to the
   earliest-free lane; [Serve.Admission.request] decides whether it gets
   engine time at all, and the measured engine seconds advance that lane's
   free instant. Queueing is therefore SIMULATED on the virtual timeline
   while service cost is REAL — an offered rate above capacity makes lane
   free instants run away from arrival instants, and the admission gate
   starts shedding, exactly as a wall-clock deployment would, but
   reproducibly and without burning wall time on sleeps.

   Writes go through the admission layer's bounded coalescing queue and are
   flushed on a virtual interval (and on backpressure). A flush is the
   single-writer barrier: its measured wall time stalls EVERY lane, which is
   precisely the read/write interference the paper's epoch model implies.

   Check mode is the shed-path differential: every answered request is
   audited against a from-scratch [Lmfao.Engine.eval] reference for the
   epoch it claims — [Fresh e] must match the reference AT the current
   epoch [e], and [Stale e] must match the reference that was current when
   epoch [e] was live (references are captured while their epoch is still
   current, so the audit never needs time travel). Answers must match bit
   for bit ([Aggregates.Spec.keyed_bits_equal] in canonical order), which
   is sound on dyadic-lattice inputs. *)

module Admission = Serve.Admission
module Spec = Aggregates.Spec

type report = {
  offered : int;
  admitted : int;
  shed : int;
  timeout : int;
  flushes : int;
  backpressure : int;
  retries : int;
  coalesced : int;
  dropped_deltas : int;
  p50 : float;
  p95 : float;
  p99 : float;
  max_latency : float;
  checked : int;
  errors : string list;
  error_count : int;
}

(* exact order statistic over the collected latencies (the Obs histogram is
   the production view; the report recomputes independently so the two can
   cross-check each other in tests) *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) rank))

let run ?lanes ?(flush_interval = 0.05) ?(check = false) adm ~catalog ~events =
  if Array.length catalog = 0 then invalid_arg "Driver.run: empty catalog";
  let srv = Admission.server adm in
  let lane_count =
    match lanes with Some n -> Stdlib.max 1 n | None -> Util.Pool.num_domains ()
  in
  let lane_free = Array.make lane_count 0.0 in
  let offered = ref 0
  and admitted = ref 0
  and shed = ref 0
  and timeout = ref 0
  and flushes = ref 0
  and backpressure = ref 0
  and retries = ref 0
  and coalesced = ref 0
  and dropped_deltas = ref 0
  and checked = ref 0 in
  let latencies = ref [] in
  let errors = ref [] and error_count = ref 0 in
  let record_error fmt =
    Printf.ksprintf
      (fun msg ->
        incr error_count;
        if !error_count <= 20 then errors := msg :: !errors)
      fmt
  in
  (* (epoch, catalog index) -> reference result in canonical order,
     captured while the epoch was current; [Stale e] audits read what was
     stored then *)
  let refs : (int * int, (string * Spec.result) list) Hashtbl.t = Hashtbl.create 64 in
  let reference_now idx =
    let key = (Serve.epoch srv, idx) in
    match Hashtbl.find_opt refs key with
    | Some r -> r
    | None ->
        let r =
          Spec.sort_keyed
            (Lmfao.Engine.eval ~on_cyclic:`Materialize (Serve.snapshot srv) catalog.(idx))
              .Lmfao.Engine.keyed
        in
        Hashtbl.add refs key r;
        r
  in
  let results_match r reference = Spec.keyed_bits_equal (Spec.sort_keyed r) reference in
  let audit idx (o : Admission.outcome) =
    if check then
      match (o.Admission.status, o.Admission.result) with
      | Admission.Fresh e, Some r ->
          incr checked;
          let now_e = Serve.epoch srv in
          if e <> now_e then
            record_error "fresh answer tagged epoch %d at epoch %d" e now_e
          else if not (results_match r (reference_now idx)) then
            record_error "WRONG BIT: fresh answer for %s diverges at epoch %d"
              catalog.(idx).Aggregates.Batch.name e
      | Admission.Stale e, Some r -> (
          incr checked;
          if e > Serve.epoch srv then
            record_error "stale answer tagged FUTURE epoch %d" e
          else
            match Hashtbl.find_opt refs (e, idx) with
            | None ->
                record_error
                  "stale answer for %s references epoch %d never served fresh"
                  catalog.(idx).Aggregates.Batch.name e
            | Some reference ->
                if not (results_match r reference) then
                  record_error
                    "WRONG BIT: stale answer for %s is not epoch %d's answer"
                    catalog.(idx).Aggregates.Batch.name e)
      | Admission.Timeout, None -> ()
      | Admission.Timeout, Some _ ->
          record_error "timeout outcome carries a result"
      | (Admission.Fresh _ | Admission.Stale _), None ->
          record_error "answered status with no result"
  in
  let flush now =
    if Admission.pending_updates adm > 0 then begin
      let t0 = Obs.Clock.now () in
      coalesced := !coalesced + Admission.flush adm;
      let dt = Obs.Clock.now () -. t0 in
      incr flushes;
      (* the single-writer barrier stalls every lane for the flush's
         measured duration *)
      for i = 0 to lane_count - 1 do
        lane_free.(i) <- Float.max lane_free.(i) now +. dt
      done
    end
  in
  let last_flush = ref 0.0 in
  List.iter
    (fun ev ->
      let now = Workload.at ev in
      if now -. !last_flush >= flush_interval then begin
        flush now;
        last_flush := now
      end;
      match ev with
      | Workload.Read { at; tenant; batch } ->
          incr offered;
          let li = ref 0 in
          Array.iteri (fun i f -> if f < lane_free.(!li) then li := i) lane_free;
          let o =
            Admission.request adm
              ~tenant:(Printf.sprintf "t%d" tenant)
              ~batch:catalog.(batch) ~arrival:at ~lane_free:lane_free.(!li)
          in
          if o.Admission.used_lane then lane_free.(!li) <- o.Admission.finished;
          latencies := o.Admission.latency :: !latencies;
          retries := !retries + o.Admission.retries;
          (match o.Admission.status with
          | Admission.Fresh _ -> incr admitted
          | Admission.Stale _ -> incr shed
          | Admission.Timeout -> incr timeout);
          audit batch o
      | Workload.Delta { at = _; updates } -> (
          match Admission.submit_delta adm updates with
          | `Queued -> ()
          | `Backpressure -> (
              (* the queue is full: flush synchronously (paying the barrier)
                 and retry once; a delta batch larger than the whole queue
                 can never fit and is dropped, counted *)
              incr backpressure;
              flush now;
              last_flush := now;
              match Admission.submit_delta adm updates with
              | `Queued -> ()
              | `Backpressure -> incr dropped_deltas)))
    events;
  (* drain the tail so every submitted update reaches the maintainer *)
  let end_of_time =
    match List.rev events with [] -> 0.0 | ev :: _ -> Workload.at ev
  in
  flush end_of_time;
  let sorted = Array.of_list !latencies in
  Array.sort Float.compare sorted;
  {
    offered = !offered;
    admitted = !admitted;
    shed = !shed;
    timeout = !timeout;
    flushes = !flushes;
    backpressure = !backpressure;
    retries = !retries;
    coalesced = !coalesced;
    dropped_deltas = !dropped_deltas;
    p50 = quantile sorted 0.5;
    p95 = quantile sorted 0.95;
    p99 = quantile sorted 0.99;
    max_latency = (if Array.length sorted = 0 then Float.nan
                   else sorted.(Array.length sorted - 1));
    checked = !checked;
    errors = List.rev !errors;
    error_count = !error_count;
  }
