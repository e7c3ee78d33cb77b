(* Concurrent aggregate serving over Lmfao.Engine with an epoch-invalidated
   result cache.

   The paper's serving story (ROADMAP north star) is repeated traffic of the
   SAME aggregate batches — covariance matrices for model reoptimisation,
   mutual-information batches for structure search — over a database that
   F-IVM keeps fresh. Re-running LMFAO's decomposition per request wastes
   the repetition, so this layer caches batch results keyed by

     (Batch.fingerprint, database epoch)

   where the epoch is an atomic counter advanced by every delta batch. A
   request whose cached entry carries the current epoch and holds the
   same batch (a fingerprint match alone is not enough) is a HIT (no engine
   work at all). On delta application, cache entries are either

   - REFRESHED in place, when every aggregate of the batch is a coordinate
     of the maintained covariance triple (COUNT, SUM(x), SUM(x^2),
     SUM(x*y) over the maintainer's features, unfiltered and ungrouped):
     the new result is read straight out of [Maintainer.covariance], which
     F-IVM has already brought up to date — no recompute; or
   - DROPPED (invalidated), for anything else (group-bys, filters,
     non-feature attributes); the next request recomputes and re-caches.

   Under exact arithmetic (the dyadic-lattice inputs of the differential
   tests) refreshed entries are bit-identical to a fresh LMFAO recompute,
   because both pipelines produce exactly representable sums.

   Concurrency: the cache is guarded by one mutex held only for lookups and
   insertions (never across engine work); the epoch is an [Atomic]. Reads
   may run as K concurrent clients on [Util.Pool] tasks under the global
   worker budget. Delta application is single-writer: callers must not
   overlap [apply_deltas] with in-flight reads (the CLI and tests serialise
   them; a miss that loses the race to a concurrent delta batch is inserted
   at its own stale epoch and simply misses again next time). *)

open Relational
module Spec = Aggregates.Spec
module Batch = Aggregates.Batch
module Cov = Rings.Covariance
module Maintainer = Fivm.Maintainer

(* Coordinate of one covariance-backed aggregate in the maintained triple. *)
type coord = C | S of int | Q of int * int

type entry = {
  e_batch : Batch.t; (* the batch answered; a hit must equal it *)
  mutable e_epoch : int; (* epoch the cached result is valid for *)
  mutable e_result : (string * Spec.result) list;
  refresh : (string * coord) list option;
      (* per-aggregate coordinates when the WHOLE batch is covariance-backed *)
}

type stats = {
  hits : int;
  misses : int;
  invalidations : int;
  refreshes : int;
  clients_clamped : int;
  model_refreshes : int;
  model_predictions : int;
}

(* One registered model: the module that trains it, the current parameters,
   the epoch they were trained at, and the staleness budget (how many epochs
   the model may lag the data before [apply_deltas] must refresh it). *)
type mentry = {
  spec : Ml.Model_intf.t;
  m_response : string;
  max_staleness : int;
  mutable packed : Ml.Model_intf.packed;
  mutable m_epoch : int;
}

type t = {
  maintainer : Maintainer.t;
  feature_index : (string, int) Hashtbl.t;
  epoch : int Atomic.t;
  cache : (int, entry) Hashtbl.t; (* fingerprint -> entry *)
  models : (string, mentry) Hashtbl.t; (* registered name -> entry *)
  lock : Mutex.t;
  writer : bool Atomic.t; (* single-writer contract enforcement *)
  options : Lmfao.Engine.options;
  hits : int Atomic.t;
  misses : int Atomic.t;
  invalidations : int Atomic.t;
  refreshes : int Atomic.t;
  clients_clamped : int Atomic.t;
  model_refreshes : int Atomic.t;
  model_predictions : int Atomic.t;
}

let c_hits = Obs.counter "serve.hits"
let c_misses = Obs.counter "serve.misses"
let c_invalidations = Obs.counter "serve.invalidations"
let c_refreshes = Obs.counter "serve.refreshes"
let c_clients_clamped = Obs.counter "serve.clients_clamped"
let c_model_refreshes = Obs.counter "serve.model_refreshes"
let c_model_predictions = Obs.counter "serve.model_predictions"

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

exception Concurrent_writer of string

(* The documented single-writer contract, now enforced: every mutating
   entry point ([apply_deltas], [Model.register], [Model.refresh]) must
   hold the writer flag for its whole duration. Overlap raises instead of
   silently corrupting maintainer or model state — the flag is a CAS, not
   a lock, because a second writer is a caller BUG to surface, not a
   queue to wait in. *)
let with_writer t ~who f =
  if not (Atomic.compare_and_set t.writer false true) then
    raise
      (Concurrent_writer
         (Printf.sprintf
            "Serve.%s: another writer (apply_deltas / Model.register / \
             Model.refresh) is in flight — writes must be serialised"
            who));
  Fun.protect ~finally:(fun () -> Atomic.set t.writer false) f

let create ?(options = Lmfao.Engine.default_options) strategy
    (db : Database.t) ~features =
  let maintainer = Maintainer.create strategy db ~features in
  let feature_index = Hashtbl.create 8 in
  List.iteri (fun i f -> Hashtbl.replace feature_index f i) features;
  {
    maintainer;
    feature_index;
    epoch = Atomic.make 0;
    cache = Hashtbl.create 16;
    models = Hashtbl.create 8;
    lock = Mutex.create ();
    writer = Atomic.make false;
    options;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    invalidations = Atomic.make 0;
    refreshes = Atomic.make 0;
    clients_clamped = Atomic.make 0;
    model_refreshes = Atomic.make 0;
    model_predictions = Atomic.make 0;
  }

let maintainer t = t.maintainer
let epoch t = Atomic.get t.epoch
let cache_size t = locked t (fun () -> Hashtbl.length t.cache)

let stats t =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    invalidations = Atomic.get t.invalidations;
    refreshes = Atomic.get t.refreshes;
    clients_clamped = Atomic.get t.clients_clamped;
    model_refreshes = Atomic.get t.model_refreshes;
    model_predictions = Atomic.get t.model_predictions;
  }

(* ---------- covariance-backed detection ---------- *)

let coord_of_spec t (s : Spec.t) =
  let idx a = Hashtbl.find_opt t.feature_index a in
  if s.filter <> Predicate.True || s.group_by <> [] then None
  else
    match s.terms with
    | [] -> Some C
    | [ (x, 1) ] -> Option.map (fun i -> S i) (idx x)
    | [ (x, 2) ] -> Option.map (fun i -> Q (i, i)) (idx x)
    | [ (x, 1); (y, 1) ] -> (
        match (idx x, idx y) with
        | Some i, Some j -> Some (Q (i, j))
        | _ -> None)
    | _ -> None

(* The refresh plan: Some coords iff EVERY aggregate is a triple
   coordinate — a partially backed batch cannot be refreshed consistently,
   so it invalidates as a whole. *)
let refresh_plan t (batch : Batch.t) =
  let rec all acc = function
    | [] -> Some (List.rev acc)
    | (s : Spec.t) :: rest -> (
        match coord_of_spec t s with
        | Some c -> all ((s.id, c) :: acc) rest
        | None -> None)
  in
  all [] batch.Batch.aggregates

let coord_value (cov : Cov.t) = function
  | C -> Cov.count cov
  | S i -> Cov.sum cov i
  | Q (i, j) -> Cov.product cov i j

let result_of_plan cov plan =
  List.map (fun (id, c) -> (id, [ ([], coord_value cov c) ])) plan

(* ---------- snapshot + recompute ---------- *)

(* Current database contents as a fresh [Database.t] (storage dump replayed
   in insertion order) — what a cache miss evaluates over and what
   beyond-the-triple model refreshers recompute their statistics from. *)
let snapshot t : Database.t = Maintainer.snapshot t.maintainer

(* Recompute the batch and return results in BATCH order (the engine groups
   its keyed results by decomposition root) — the serving contract is
   request order, and refreshed entries are rebuilt in batch order too.

   Misses go through [Compile.Engine]'s plan cache: one compiled plan per
   batch fingerprint, revalidated against the live snapshot before reuse
   (deltas shift cardinalities, which can move a pure count's root), with
   the WCOJ materialisation fallback on cyclic schemas. *)
let recompute t (batch : Batch.t) =
  let keyed = Compile.Engine.eval_batch ~options:t.options (snapshot t) batch in
  List.map
    (fun (s : Spec.t) ->
      match List.assoc_opt s.id keyed with
      | Some res -> (s.id, res)
      | None -> failwith "Serve.recompute: engine lost an aggregate")
    batch.Batch.aggregates

(* ---------- the read path ---------- *)

let serve t (batch : Batch.t) : (string * Spec.result) list =
  Obs.with_span "serve.request" @@ fun () ->
  let fp = Batch.fingerprint batch in
  let now = Atomic.get t.epoch in
  let cached =
    locked t (fun () ->
        match Hashtbl.find_opt t.cache fp with
        | Some e when e.e_epoch = now && Batch.equal e.e_batch batch -> Some e.e_result
        | _ -> None)
  in
  match cached with
  | Some r ->
      Atomic.incr t.hits;
      Obs.incr c_hits;
      r
  | None ->
      Atomic.incr t.misses;
      Obs.incr c_misses;
      let keyed = recompute t batch in
      locked t (fun () ->
          match Hashtbl.find_opt t.cache fp with
          | Some e when e.e_epoch >= now && Batch.equal e.e_batch batch ->
              (* a concurrent miss (or a refresh) got there first; keep the
                 newer entry *)
              ()
          | _ ->
              Hashtbl.replace t.cache fp
                {
                  e_batch = batch;
                  e_epoch = now;
                  e_result = keyed;
                  refresh = refresh_plan t batch;
                });
      keyed

(* K concurrent clients on pool tasks; [clients] bounds the domains used
   (further capped by the global worker budget). Results in input order.
   An explicit request above the budget is recorded in [clients_clamped]
   (and the [serve.clients_clamped] counter) — the pool silently runs the
   excess inline, and load tests need oversubscription to be detectable. *)
let serve_many ?clients t (batches : Batch.t list) =
  let requested =
    match clients with Some c -> c | None -> Util.Pool.num_domains ()
  in
  if requested > Util.Pool.worker_budget () + 1 then begin
    Atomic.incr t.clients_clamped;
    Obs.incr c_clients_clamped
  end;
  Util.Pool.parallel_tasks ?domains:clients
    (List.map (fun b () -> serve t b) batches)

(* ---------- online model maintenance ---------- *)

(* The moments bundle a registered model (re)trains from: covariance
   straight from the maintained triple (O(d^2), data-size independent);
   monomial / row statistics recomputed from a snapshot on demand. *)
let model_moments t ~response =
  Ml.Model_intf.moments_of_covariance
    ~snapshot:(fun () -> snapshot t)
    ~engine_options:t.options
    (Maintainer.covariance t.maintainer)
    ~features:(Maintainer.features t.maintainer)
    ~response

let refresh_models t ~next =
  (* snapshot the entry list under the lock, train outside it (the lock is
     never held across engine work); entry mutation is safe because delta
     application is single-writer *)
  let entries =
    locked t (fun () -> Hashtbl.fold (fun _ e acc -> e :: acc) t.models [])
  in
  List.iter
    (fun (e : mentry) ->
      if next - e.m_epoch > e.max_staleness then begin
        e.packed <-
          Ml.Model_intf.refresh_packed e.packed
            (model_moments t ~response:e.m_response);
        e.m_epoch <- next;
        Atomic.incr t.model_refreshes;
        Obs.incr c_model_refreshes
      end)
    entries

(* ---------- the write path ---------- *)

let apply_deltas t (updates : Fivm.Delta.update list) =
  Obs.with_span "serve.apply" @@ fun () ->
  with_writer t ~who:"apply_deltas" @@ fun () ->
  Maintainer.apply_batch t.maintainer updates;
  let next = Atomic.fetch_and_add t.epoch 1 + 1 in
  let cov = lazy (Maintainer.covariance t.maintainer) in
  locked t (fun () ->
      let dropped = ref [] in
      Hashtbl.iter
        (fun fp (e : entry) ->
          if e.e_epoch < next then
            match e.refresh with
            | Some plan ->
                e.e_result <- result_of_plan (Lazy.force cov) plan;
                e.e_epoch <- next;
                Atomic.incr t.refreshes;
                Obs.incr c_refreshes
            | None ->
                dropped := fp :: !dropped;
                Atomic.incr t.invalidations;
                Obs.incr c_invalidations)
        t.cache;
      List.iter (Hashtbl.remove t.cache) !dropped);
  refresh_models t ~next

(* ---------- epoch-fresh model serving ---------- *)

module Model = struct
  let find t name =
    locked t (fun () ->
        match Hashtbl.find_opt t.models name with
        | Some e -> e
        | None -> invalid_arg (Printf.sprintf "Serve.Model: no model %S" name))

  (* Register and train the initial parameters from the current triple.
     Single-writer, like [apply_deltas]. *)
  let register ?name ?(max_staleness = 0) t (spec : Ml.Model_intf.t)
      ~(response : string) =
    if max_staleness < 0 then invalid_arg "Serve.Model.register: max_staleness < 0";
    if not (List.mem response (Maintainer.features t.maintainer)) then
      invalid_arg
        (Printf.sprintf
           "Serve.Model.register: response %s is not a maintained feature"
           response);
    let name = Option.value name ~default:(Ml.Model_intf.name spec) in
    with_writer t ~who:"Model.register" @@ fun () ->
    let packed =
      Ml.Model_intf.train_packed spec (model_moments t ~response)
    in
    let e =
      {
        spec;
        m_response = response;
        max_staleness;
        packed;
        m_epoch = Atomic.get t.epoch;
      }
    in
    locked t (fun () ->
        if Hashtbl.mem t.models name then
          invalid_arg
            (Printf.sprintf "Serve.Model.register: %S already registered" name);
        Hashtbl.replace t.models name e);
    name

  let names t =
    locked t (fun () ->
        List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) t.models []))

  (* The served parameters with their epoch tag: the model is guaranteed to
     lag the data by at most its staleness budget. *)
  let packed t name =
    let e = find t name in
    (e.packed, e.m_epoch)

  let epoch_of t name = (find t name).m_epoch
  let spec_of t name = (find t name).spec
  let response_of t name = (find t name).m_response

  let predict t name (get : string -> Value.t) =
    let e = find t name in
    Atomic.incr t.model_predictions;
    Obs.incr c_model_predictions;
    (Ml.Model_intf.predict_packed e.packed get, e.m_epoch)

  (* Force a refresh outside [apply_deltas] (e.g. a staleness-intolerant
     client paying for freshness on demand). *)
  let refresh t name =
    let e = find t name in
    with_writer t ~who:"Model.refresh" @@ fun () ->
    let now = Atomic.get t.epoch in
    if e.m_epoch < now then begin
      e.packed <-
        Ml.Model_intf.refresh_packed e.packed
          (model_moments t ~response:e.m_response);
      e.m_epoch <- now;
      Atomic.incr t.model_refreshes;
      Obs.incr c_model_refreshes
    end
end

(* ---------- overload-robust admission frontier ---------- *)

(* [Admission] wraps the read/write paths with the machinery a server needs
   when traffic is adversarial rather than cooperative:

   - per-tenant token buckets plus a global queue-delay gate decide who gets
     engine time at all;
   - requests that are denied engine time are NOT dropped: they are answered
     from an epoch-stale shadow cache with an explicit [Stale of epoch] tag.
     The shadow cache records, for every fresh answer, the exact result
     bytes served at that epoch — a shed answer is therefore always
     bit-identical to SOME past epoch's correct answer (the differential in
     [test_traffic.ml]), never a wrong bit;
   - admitted requests carry a deadline; answers that complete past it are
     classified [Timeout] (the caller sees no result — a late answer is a
     wrong answer in an open-loop system);
   - the recompute path retries injected transient faults
     ([Resilience.Faults]) with full-jitter backoff ([Util.Prng.backoff]);
   - writes go through a bounded pending queue that COALESCES updates (per
     (relation, tuple) multiplicity sums, zeros dropped) into one maintainer
     pass, with [`Backpressure] once the queue is full.

   Time is VIRTUAL and owned by the caller (the [Traffic] driver): [request]
   takes the request's arrival instant and the instant its serving lane
   frees up, and returns the finish instant. Only the engine work itself is
   measured in real wall-clock seconds and folded into the virtual
   timeline — this is how the open-loop harness avoids coordinated
   omission: queueing delay is simulated, service cost is real.

   Every request resolves to exactly ONE of admitted / shed / timeout, so
   [serve.offered = serve.admitted + serve.shed + serve.timeout] is a hard
   invariant (checked by [borg traffic --check]), and each resolution
   observes [serve.latency] exactly once. *)
module Admission = struct
  type status = Fresh of int | Stale of int | Timeout

  type outcome = {
    status : status;
    result : (string * Spec.result) list option;
        (* Some for [Fresh]/[Stale] with a cached answer; None for
           [Timeout] and for shed requests with no stale entry yet *)
    started : float;
    finished : float;
    latency : float;
    retries : int;
    used_lane : bool;
  }

  type config = {
    tenant_rate : float;  (* token-bucket refill, requests/second *)
    tenant_burst : float;  (* bucket capacity *)
    gate_delay : float;  (* max queue delay before the global gate sheds *)
    deadline : float;  (* per-request budget from arrival to finish *)
    max_pending : int;  (* pending delta-queue depth before backpressure *)
    max_retries : int;  (* transient-fault retry budget per request *)
    backoff_base : float;
    backoff_cap : float;
    faults : Resilience.Faults.t;
    seed : int;
  }

  let config ?(tenant_rate = 100.0) ?(tenant_burst = 20.0) ?(gate_delay = 0.05)
      ?(deadline = 0.25) ?(max_pending = 4096) ?(max_retries = 4)
      ?(backoff_base = 1e-4) ?(backoff_cap = 1e-2) ?faults ?(seed = 0) () =
    (* rate 0 is meaningful — a bucket that never refills (tests, frozen
       tenants) — but a burst below one token could never admit anything *)
    if tenant_rate < 0.0 || tenant_burst < 1.0 then
      invalid_arg "Admission.config: tenant_rate < 0 or tenant_burst < 1";
    if max_pending <= 0 then invalid_arg "Admission.config: max_pending <= 0";
    let faults =
      match faults with Some f -> f | None -> Resilience.Faults.none ()
    in
    {
      tenant_rate;
      tenant_burst;
      gate_delay;
      deadline;
      max_pending;
      max_retries;
      backoff_base;
      backoff_cap;
      faults;
      seed;
    }

  type bucket = { mutable tokens : float; mutable last_refill : float }

  type a = {
    srv : t;
    cfg : config;
    prng : Util.Prng.t;
    tenants : (string, bucket) Hashtbl.t;
    shadow : (int, Batch.t * int * (string * Spec.result) list) Hashtbl.t;
        (* fingerprint -> (batch, epoch, exact result served at that epoch) *)
    mutable pending : Fivm.Delta.update list list; (* newest first *)
    mutable pending_updates : int;
  }

  let c_offered = Obs.counter "serve.offered"
  let c_admitted = Obs.counter "serve.admitted"
  let c_shed = Obs.counter "serve.shed"
  let c_timeout = Obs.counter "serve.timeout"
  let c_coalesced = Obs.counter "serve.coalesced"
  let c_retries = Obs.counter "serve.retries"
  let c_backpressure = Obs.counter "serve.backpressure"
  let h_latency = Obs.histogram "serve.latency"

  let create cfg srv =
    {
      srv;
      cfg;
      prng = Util.Prng.create cfg.seed;
      tenants = Hashtbl.create 16;
      shadow = Hashtbl.create 64;
      pending = [];
      pending_updates = 0;
    }

  let server a = a.srv
  let pending_updates a = a.pending_updates

  (* ---- token buckets ---- *)

  let take_token a ~tenant ~now =
    let b =
      match Hashtbl.find_opt a.tenants tenant with
      | Some b -> b
      | None ->
          let b = { tokens = a.cfg.tenant_burst; last_refill = now } in
          Hashtbl.add a.tenants tenant b;
          b
    in
    (* lazy refill at arrival; virtual time is monotone per driver but be
       robust to equal stamps *)
    if now > b.last_refill then begin
      b.tokens <-
        Float.min a.cfg.tenant_burst
          (b.tokens +. ((now -. b.last_refill) *. a.cfg.tenant_rate));
      b.last_refill <- now
    end;
    if b.tokens >= 1.0 then begin
      b.tokens <- b.tokens -. 1.0;
      true
    end
    else false

  (* ---- the read path ---- *)

  (* Denied engine time: answer from the shadow cache when it has this
     batch (shed — a degraded but correct answer), otherwise the request is
     effectively dropped (timeout — no answer at all). Either way the
     resolution is a cache lookup, free on the virtual timeline. *)
  let shed_outcome a ~batch ~fp ~arrival =
    Obs.observe h_latency 0.0;
    let status, result =
      match Hashtbl.find_opt a.shadow fp with
      | Some (b, e, r) when Batch.equal b batch ->
          Obs.incr c_shed;
          (Stale e, Some r)
      | Some _ | None ->
          Obs.incr c_timeout;
          (Timeout, None)
    in
    {
      status;
      result;
      started = arrival;
      finished = arrival;
      latency = 0.0;
      retries = 0;
      used_lane = false;
    }

  let request a ~tenant ~batch ~arrival ~lane_free =
    Obs.incr c_offered;
    let fp = Batch.fingerprint batch in
    if not (take_token a ~tenant ~now:arrival) then
      (* over quota: this tenant gets a degraded answer, never a lane *)
      shed_outcome a ~batch ~fp ~arrival
    else begin
      let started = Float.max arrival lane_free in
      let queue_delay = started -. arrival in
      if queue_delay > a.cfg.gate_delay then
        (* global gate: the lanes are so far behind that admitting would
           only grow the queue — answer stale instead *)
        shed_outcome a ~batch ~fp ~arrival
      else begin
        (* admitted to a lane: real engine work on the virtual timeline,
           with transient faults retried under full-jitter backoff *)
        let retries = ref 0 in
        let rec attempt k backoff_spent =
          if Resilience.Faults.transient_failure a.cfg.faults then begin
            Obs.incr c_retries;
            if k >= a.cfg.max_retries then None
            else begin
              incr retries;
              let delay =
                Util.Prng.backoff a.prng ~base:a.cfg.backoff_base
                  ~cap:a.cfg.backoff_cap ~attempt:k
              in
              attempt (k + 1) (backoff_spent +. delay)
            end
          end
          else begin
            let t0 = Obs.Clock.now () in
            let r = serve a.srv batch in
            Some (r, backoff_spent +. (Obs.Clock.now () -. t0))
          end
        in
        match attempt 0 0.0 with
        | None ->
            (* fault persisted through the retry budget *)
            Obs.incr c_timeout;
            Obs.observe h_latency a.cfg.deadline;
            {
              status = Timeout;
              result = None;
              started;
              finished = started;
              latency = a.cfg.deadline;
              retries = !retries;
              used_lane = false;
            }
        | Some (r, service) ->
            let finished = started +. service in
            let latency = finished -. arrival in
            Obs.observe h_latency latency;
            if latency > a.cfg.deadline then begin
              (* completed, but past its budget: in an open-loop system a
                 late answer is not an answer (the lane time is still
                 spent — that is what congestion costs) *)
              Obs.incr c_timeout;
              {
                status = Timeout;
                result = None;
                started;
                finished;
                latency;
                retries = !retries;
                used_lane = true;
              }
            end
            else begin
              let e = Atomic.get a.srv.epoch in
              Hashtbl.replace a.shadow fp (batch, e, r);
              Obs.incr c_admitted;
              {
                status = Fresh e;
                result = Some r;
                started;
                finished;
                latency;
                retries = !retries;
                used_lane = true;
              }
            end
      end
    end

  (* ---- the write path: bounded queue + coalescing ---- *)

  let submit_delta a (updates : Fivm.Delta.update list) =
    if a.pending_updates + List.length updates > a.cfg.max_pending then begin
      Obs.incr c_backpressure;
      `Backpressure
    end
    else begin
      a.pending <- updates :: a.pending;
      a.pending_updates <- a.pending_updates + List.length updates;
      `Queued
    end

  (* Merge all pending batches into one maintainer pass: multiplicities sum
     per (relation, tuple) and zero-sum pairs vanish entirely. Coalescing
     reorders float accumulation, so bit-identity of the maintained state
     versus one-by-one application holds on exactly representable inputs
     (the dyadic lattice of the tests); IEEE inputs agree to rounding. *)
  let flush a =
    let batches = List.rev a.pending in
    a.pending <- [];
    let before = a.pending_updates in
    a.pending_updates <- 0;
    if batches = [] then 0
    else begin
      let order = ref [] in
      let merged : (string * Relational.Tuple.t, int ref) Hashtbl.t =
        Hashtbl.create 64
      in
      List.iter
        (List.iter (fun (u : Fivm.Delta.update) ->
             let key = (u.Fivm.Delta.relation, u.Fivm.Delta.tuple) in
             match Hashtbl.find_opt merged key with
             | Some m -> m := !m + u.Fivm.Delta.multiplicity
             | None ->
                 Hashtbl.add merged key (ref u.Fivm.Delta.multiplicity);
                 order := key :: !order))
        batches;
      let coalesced =
        List.filter_map
          (fun key ->
            let m = !(Hashtbl.find merged key) in
            if m = 0 then None
            else
              let relation, tuple = key in
              Some { Fivm.Delta.relation; tuple; multiplicity = m })
          (List.rev !order)
      in
      let eliminated = before - List.length coalesced in
      Obs.add c_coalesced eliminated;
      if coalesced <> [] then apply_deltas a.srv coalesced;
      eliminated
    end
end
