(* Per-shard resilient drivers over a Fivm.Shard plan. Each shard keeps its
   own WAL + checkpoints under dir/shard-<k>; crashes are caught inside the
   owning shard's Pool task, which recreates the driver (per-shard recovery:
   only shard k's checkpoint + WAL tail are read) and resumes its queue from
   the recovered sequence number. *)

open Fivm

let c_crashes = Obs.counter "resilience.shard.crashes"

type t = {
  plan : Shard.plan;
  configs : Driver.config array;
  make : unit -> Maintainer.t;
  drivers : Driver.t array;
  max_restarts : int;
  crashes : int Atomic.t;
}

let create ?(checkpoint_every = 256) ?(audit_every = 0) ?(audit_eps = 1e-6)
    ?(max_retries = 8) ?(max_restarts = 8) ?faults ~dir ~plan make =
  let n = Shard.plan_shards plan in
  let fault_plan k =
    match faults with Some f -> f k | None -> Faults.none ()
  in
  let configs =
    Array.init n (fun k ->
        Driver.config ~checkpoint_every ~audit_every ~audit_eps ~max_retries
          ~faults:(fault_plan k)
          (Filename.concat dir (Printf.sprintf "shard-%d" k)))
  in
  let drivers = Array.map (fun c -> Driver.create c make) configs in
  { plan; configs; make; drivers; max_restarts; crashes = Atomic.make 0 }

let shards t = Array.length t.drivers
let plan_of t = t.plan

(* One shard's submit loop with in-task crash recovery. The queue position
   is recovered as (committed seq - seq at batch entry): exact as long as
   the crash window holds no quarantined updates, which do not advance seq
   (same contract as the single-shard restart harness in `borg maintain`). *)
let run_shard t k queue =
  let queue = Array.of_list queue in
  let n = Array.length queue in
  let start_seq = Driver.seq t.drivers.(k) in
  let restarts = ref 0 in
  let rec go () =
    let d = t.drivers.(k) in
    let pos = Driver.seq d - start_seq in
    try
      for i = pos to n - 1 do
        ignore (Driver.submit d queue.(i))
      done
    with Faults.Crash _ ->
      incr restarts;
      Atomic.incr t.crashes;
      Obs.incr c_crashes;
      if !restarts > t.max_restarts then
        failwith
          (Printf.sprintf "Sharded: shard %d exhausted %d restarts" k
             t.max_restarts);
      t.drivers.(k) <- Driver.create t.configs.(k) t.make;
      go ()
  in
  go ()

let submit_batch ?domains t updates =
  let queues = Shard.partition t.plan updates in
  Obs.with_span "resilience.shard.batch" (fun () ->
      let tasks =
        List.init (Array.length t.drivers) (fun k () ->
            run_shard t k queues.(k))
      in
      ignore (Util.Pool.parallel_tasks ?domains tasks))

let covariance t = Shard.merge (Array.map Driver.covariance t.drivers)

let seqs t = Array.map Driver.seq t.drivers
let seq t = Array.fold_left ( + ) 0 (seqs t)
let crashes t = Atomic.get t.crashes

let quarantined t =
  Array.to_list t.drivers |> List.concat_map Driver.quarantined

let driver t k = t.drivers.(k)
let checkpoint_now t = Array.iter Driver.checkpoint_now t.drivers
let close t = Array.iter Driver.close t.drivers
