(* Resilient batch driver around the F-IVM maintenance loop.

   The durability contract, per update:

   1. VALIDATE against the live schemas (unknown relation, wrong arity,
      type-mismatched or non-finite values). Malformed updates are
      quarantined into a dead-letter list and NEVER logged — the WAL only
      ever holds updates the maintainer can apply.
   2. LOG to the WAL (flushed) under the next sequence number.
   3. APPLY to the maintainer, retrying with exponential backoff when the
      fault plan injects a transient failure.
   4. COMMIT: advance the sequence counter.

   A crash between 2 and 4 is therefore recoverable: the update is in the
   WAL and recovery replays it. [create] always starts with recovery —
   restore the newest valid checkpoint, repair a torn WAL tail to its valid
   prefix, replay the records past the checkpoint's sequence number — so a
   fresh directory, a clean shutdown and a crash all go through one path.

   Checkpoints rotate the WAL in two generations: [wal.log] becomes
   [wal.prev.log] (dropping the generation before it) and a fresh [wal.log]
   starts. Checkpoint pruning keeps the newest TWO checkpoints, so even if
   the newest checkpoint is corrupted on disk, the older checkpoint plus the
   two log generations still cover every committed update — recovery skips
   replayed records at or below the restored sequence number, so the overlap
   is harmless, as is a crash between the checkpoint rename and the
   rotation.

   Audits periodically compare the maintained covariance against a
   from-scratch recomputation ([Maintainer.recompute]); on divergence the
   driver rebuilds views from base storage and re-checkpoints — callers
   keep getting answers, at rebuild cost, instead of wrong ones. *)

open Fivm
open Relational
module M = Maintainer

(* Observability ([resilience.*]): the robustness ledger — what was logged,
   replayed, quarantined, retried, recovered and rebuilt. *)
let c_wal_records = Obs.counter "resilience.wal_records"
let c_wal_replayed = Obs.counter "resilience.wal_replayed"
let c_wal_torn = Obs.counter "resilience.wal_torn"
let c_checkpoints = Obs.counter "resilience.checkpoints"
let c_checkpoint_corrupt = Obs.counter "resilience.checkpoint_corrupt"
let c_checkpoint_misfit = Obs.counter "resilience.checkpoint_misfit"
let c_recoveries = Obs.counter "resilience.recoveries"
let c_quarantined = Obs.counter "resilience.quarantined"
let c_retries = Obs.counter "resilience.retries"
let c_audits = Obs.counter "resilience.audits"
let c_audit_failures = Obs.counter "resilience.audit_failures"
let c_rebuilds = Obs.counter "resilience.rebuilds"

type config = {
  dir : string;
  checkpoint_every : int;  (* commits between checkpoints; 0 = never *)
  audit_every : int;  (* commits between audits; 0 = never *)
  audit_eps : float;
  max_retries : int;
  faults : Faults.t;
}

let config ?(checkpoint_every = 256) ?(audit_every = 0) ?(audit_eps = 1e-6)
    ?(max_retries = 8) ?faults dir =
  let faults = match faults with Some f -> f | None -> Faults.none () in
  { dir; checkpoint_every; audit_every; audit_eps; max_retries; faults }

type t = {
  cfg : config;
  make : unit -> M.t;
  mutable m : M.t;
  mutable wal : Wal.writer;
  mutable seq : int;
  mutable dead_letters : (Delta.update * string) list;  (* newest first *)
  retry_prng : Util.Prng.t;  (* jittered-backoff draws, deterministic per driver *)
}

type outcome = Applied | Quarantined of string

let wal_path cfg = Filename.concat cfg.dir "wal.log"
let wal_prev_path cfg = Filename.concat cfg.dir "wal.prev.log"

(* ---- validation / quarantine ---- *)

let validate (m : M.t) (u : Delta.update) =
  match Storage.node (M.storage m) u.relation with
  | exception Invalid_argument _ -> Error (Printf.sprintf "unknown relation %s" u.relation)
  | n ->
      let arity = Schema.arity (Storage.schema n) in
      if Tuple.arity u.tuple <> arity then
        Error
          (Printf.sprintf "arity mismatch: relation %s has %d attributes, tuple has %d"
             u.relation arity (Tuple.arity u.tuple))
      else begin
        let err = ref None in
        Array.iteri
          (fun i v ->
            if !err = None then begin
              let attr = Schema.attr_at (Storage.schema n) i in
              (match v with
              | Value.Float f when not (Float.is_finite f) ->
                  err :=
                    Some
                      (Printf.sprintf "non-finite value %h in attribute %s" f
                         attr.Schema.name)
              | _ -> ());
              match (Value.type_of v, !err) with
              | Some ty, None when ty <> attr.Schema.ty ->
                  err :=
                    Some
                      (Printf.sprintf "attribute %s expects %s, got %s" attr.Schema.name
                         (Value.ty_to_string attr.Schema.ty)
                         (Value.ty_to_string ty))
              | _ -> ()
            end)
          u.tuple;
        match !err with Some e -> Error e | None -> Ok ()
      end

(* ---- recovery ---- *)

let recover cfg make =
  Obs.with_span "resilience.recover" @@ fun () ->
  if not (Sys.file_exists cfg.dir) then Unix.mkdir cfg.dir 0o755;
  let restored, skipped = Checkpoint.restore ~dir:cfg.dir ~make in
  Obs.add c_checkpoint_corrupt skipped.Checkpoint.corrupt;
  Obs.add c_checkpoint_misfit skipped.Checkpoint.misfit;
  let m, seq0 =
    match restored with
    | Some r -> (r.Checkpoint.maintainer, r.Checkpoint.seq)
    | None -> (make (), 0)
  in
  (* both log generations, oldest records first; each repaired to its valid
     prefix if torn (replay skips the checkpoint-covered overlap by seq) *)
  let replay_file path =
    let rp = Wal.replay path in
    if rp.Wal.torn then begin
      Obs.incr c_wal_torn;
      Wal.truncate path ~len:rp.Wal.valid_bytes
    end;
    rp
  in
  let prev = replay_file (wal_prev_path cfg) in
  let cur = replay_file (wal_path cfg) in
  let records = prev.Wal.records @ cur.Wal.records in
  (* The tail is not trusted to be monotone: a crash can leave frames
     reordered or duplicated (see Faults reorder:K / dup:K), and the two
     generations overlap the checkpoint. Dedup by seq (first occurrence
     wins — duplicates are byte-identical copies), drop everything the
     checkpoint already covers, and apply in ascending seq order. The old
     fold-while-increasing scheme silently DROPPED any record whose seq
     dipped below a later frame's — a lost update, not just a re-apply. *)
  let seen = Hashtbl.create 64 in
  let fresh =
    List.filter
      (fun (r : Wal.record) ->
        r.seq > seq0
        && not (Hashtbl.mem seen r.seq)
        && (Hashtbl.add seen r.seq (); true))
      records
  in
  let fresh =
    List.sort (fun (a : Wal.record) (b : Wal.record) -> compare a.seq b.seq) fresh
  in
  let seq =
    List.fold_left
      (fun _ (r : Wal.record) ->
        M.apply m r.update;
        Obs.incr c_wal_replayed;
        r.seq)
      seq0 fresh
  in
  let had_state =
    restored <> None
    || skipped.Checkpoint.corrupt + skipped.Checkpoint.misfit > 0
    || prev.Wal.torn || cur.Wal.torn
    || records <> []
  in
  if had_state then Obs.incr c_recoveries;
  (m, seq)

let create cfg make =
  let m, seq = recover cfg make in
  {
    cfg;
    make;
    m;
    wal = Wal.open_append (wal_path cfg);
    seq;
    dead_letters = [];
    retry_prng = Util.Prng.create (Hashtbl.hash cfg.dir);
  }

(* ---- checkpoint / audit ---- *)

let rotate_wal t =
  Wal.close t.wal;
  let cur = wal_path t.cfg and prev = wal_prev_path t.cfg in
  if Sys.file_exists prev then Sys.remove prev;
  if Sys.file_exists cur then Sys.rename cur prev;
  t.wal <- Wal.open_append cur

let checkpoint_now t =
  Obs.with_span "resilience.checkpoint" @@ fun () ->
  ignore (Checkpoint.write ~dir:t.cfg.dir ~seq:t.seq t.m);
  Obs.incr c_checkpoints;
  rotate_wal t

(* Graceful degradation: rebuild views from base storage through a fresh
   maintainer (every tuple replayed in insertion order), swap it in, and
   checkpoint so the divergent state cannot be restored later. *)
let rebuild t =
  Obs.incr c_rebuilds;
  let fresh = t.make () in
  List.iter (M.apply fresh) (Storage.dump (M.storage t.m));
  t.m <- fresh;
  checkpoint_now t

let audit_now t =
  Obs.with_span "resilience.audit" @@ fun () ->
  Obs.incr c_audits;
  let ok = Rings.Covariance.equal_rel ~eps:t.cfg.audit_eps (M.covariance t.m) (M.recompute t.m) in
  if not ok then begin
    Obs.incr c_audit_failures;
    rebuild t
  end;
  ok

(* ---- the faulty path: crashes damage disk state, then propagate ---- *)

let apply_crash_damage t =
  Wal.close t.wal;
  let f = t.cfg.faults in
  (* the byte-level shear models a write torn at the TRUE end of the log, so
     it runs first; reorder/dup then rewrite the surviving valid frames. The
     other order would let the shear eat the LOWEST seq of a reversed window
     — an acknowledged record destroyed beyond what any replay can repair. *)
  if Faults.torn_tail f > 0 then Wal.shear_tail (wal_path t.cfg) ~bytes:(Faults.torn_tail f);
  if Faults.reorder_tail f > 0 then
    Wal.reorder_tail (wal_path t.cfg) ~frames:(Faults.reorder_tail f);
  if Faults.dup_tail f > 0 then Wal.dup_tail (wal_path t.cfg) ~frames:(Faults.dup_tail f);
  if Faults.flips_checkpoint f then Checkpoint.flip_bit_newest t.cfg.dir

let guarded t thunk =
  try thunk ()
  with Faults.Crash _ as e ->
    apply_crash_damage t;
    raise e

let apply_with_retries t u =
  let f = t.cfg.faults in
  let rec attempt k =
    if Faults.transient_failure f then begin
      Obs.incr c_retries;
      if k >= t.cfg.max_retries then
        failwith
          (Printf.sprintf "resilience: transient fault persisted after %d retries"
             t.cfg.max_retries);
      (* full-jitter backoff decorrelates retry storms across drivers that
         hit the same transient fault together *)
      Unix.sleepf (Util.Prng.backoff t.retry_prng ~base:0.0002 ~cap:0.01 ~attempt:k);
      attempt (k + 1)
    end
    else M.apply t.m u
  in
  attempt 0

let submit t (u : Delta.update) : outcome =
  match validate t.m u with
  | Error reason ->
      t.dead_letters <- (u, reason) :: t.dead_letters;
      Obs.incr c_quarantined;
      Quarantined reason
  | Ok () ->
      guarded t (fun () ->
          let seq' = t.seq + 1 in
          Wal.append t.wal { Wal.seq = seq'; update = u };
          Obs.incr c_wal_records;
          Faults.crash_before t.cfg.faults ~seq:seq';
          apply_with_retries t u;
          t.seq <- seq';
          if Faults.corrupt_now t.cfg.faults ~seq:seq' then M.perturb t.m 1.0;
          Faults.crash_after t.cfg.faults ~seq:seq';
          if t.cfg.checkpoint_every > 0 && seq' mod t.cfg.checkpoint_every = 0 then
            checkpoint_now t;
          if t.cfg.audit_every > 0 && seq' mod t.cfg.audit_every = 0 then
            ignore (audit_now t);
          Applied)

let submit_batch t us =
  Obs.with_span "resilience.batch" @@ fun () ->
  List.iter (fun u -> ignore (submit t u)) us

let covariance t = M.covariance t.m
let maintainer t = t.m
let seq t = t.seq
let quarantined t = List.rev t.dead_letters

let close t =
  checkpoint_now t;
  Wal.close t.wal
