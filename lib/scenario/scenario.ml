(* Hostile-stream scenario cells: one (dataset x stream-shape) pair driven
   through every maintenance/serving layer of the stack, each layer checked
   by a DIFFERENTIAL against an independent oracle rather than a golden
   file.

   Streams come from [Datagen.Stream_gen.hostile], which snaps float
   features onto the dyadic lattice {1/16 .. 64/16}. Covariance-ring
   arithmetic over lattice values is exact in floats, so every differential
   below demands BIT-identity: maintained == recomputed, sharded ==
   unsharded, crash-recovered == never-crashed, served == engine-evaluated,
   streamed-from-pages == in-memory. A layer that reorders, drops, double-
   applies or rounds anything fails the bit comparison — there is no
   tolerance to hide behind.

   Counters ([scenario.*]): cells run, checks executed, failures, and the
   insert/delete volume pushed through, so CI can assert a smoke run really
   exercised the matrix. *)

open Relational
module M = Fivm.Maintainer
module Spec = Aggregates.Spec
module Sg = Datagen.Stream_gen

let c_cells = Obs.counter "scenario.cells"
let c_checks = Obs.counter "scenario.checks"
let c_failures = Obs.counter "scenario.failures"
let c_updates = Obs.counter "scenario.updates"
let c_deletes = Obs.counter "scenario.deletes"

type check = { layer : string; ok : bool; detail : string }

type cell = {
  dataset : string;
  shape : string;
  updates : int;  (** total delta tuples in the stream *)
  deletes : int;  (** how many of them were deletions *)
  checks : check list;  (** in execution order *)
}

let layers = [ "maintain"; "shard"; "resilience"; "serve"; "model"; "streamed" ]
let cell_ok c = List.for_all (fun ch -> ch.ok) c.checks

(* ---- the shared audits ---- *)

let with_temp_dir f =
  let dir = Filename.temp_dir "borg" "" in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* Keyed results in the canonical order: the serving cache returns batch
   order while a raw engine evaluation groups by decomposition root, and
   only the CONTENTS must match. *)
let same_keyed a b = Spec.keyed_bits_equal (Spec.sort_keyed a) (Spec.sort_keyed b)

let serve_audit srv batch =
  let miss = Serve.serve srv batch in
  let hit = Serve.serve srv batch in
  let fresh =
    (Lmfao.Engine.eval ~on_cyclic:`Materialize (Serve.snapshot srv) batch)
      .Lmfao.Engine.keyed
  in
  (same_keyed miss fresh, same_keyed hit fresh)

let packed_bits p =
  let b = Buffer.create 128 in
  Ml.Model_intf.encode_packed b p;
  Buffer.contents b

(* The cold side trains from a from-scratch recompute of the triple over
   the server's contents, in the same column layout as the warm side, so
   the two encodings are comparable bit for bit. *)
let model_audit ~probes srv name =
  Serve.Model.refresh srv name;
  let warm, epoch = Serve.Model.packed srv name in
  if epoch <> Serve.epoch srv then
    Error (Printf.sprintf "served at epoch %d, data at %d" epoch (Serve.epoch srv))
  else
    let spec = Serve.Model.spec_of srv name in
    let m = Serve.maintainer srv in
    let moments =
      Ml.Model_intf.moments_of_covariance
        ~snapshot:(fun () -> Serve.snapshot srv)
        (M.recompute m) ~features:(M.features m)
        ~response:(Serve.Model.response_of srv name)
    in
    let cold = Ml.Model_intf.train_packed spec moments in
    (* the first probe whose predictions differ by more than [limit] *)
    let diverges limit =
      match
        List.find_map
          (fun get ->
            let w = Ml.Model_intf.predict_packed warm get in
            let c = Ml.Model_intf.predict_packed cold get in
            let l = limit get w c in
            if Float.abs (w -. c) <= l then None
            else Some (Printf.sprintf "prediction %.17g vs cold %.17g (allowed %g)" w c l))
          probes
      with
      | None -> Ok ()
      | Some e -> Error e
    in
    match Ml.Models.refresh_audit spec with
    | `Bitwise ->
        if String.equal (packed_bits warm) (packed_bits cold) then Ok ()
        else Error "encoded parameters differ bitwise"
    | `Tolerance tol -> diverges (fun _ w c -> tol *. (1.0 +. Float.abs w +. Float.abs c))
    | `Bound bound -> diverges (fun get _ _ -> bound moments get)

(* Cancelled groups must VANISH from F-IVM views, not linger as zero
   payloads: net-zero churn would otherwise leave the view trees carrying
   one dead entry per deleted group forever. *)
let zero_residue_rows (m : M.t) =
  match M.dump_views m with
  | M.Cov_views views ->
      List.fold_left
        (fun acc (_, entries) ->
          acc
          + List.length (List.filter (fun (_, p) -> Rings.Covariance.is_zero p) entries))
        0 views
  | _ -> 0

(* ---- per-layer checks ---- *)

let maintained strategy db ~features batches =
  let m = M.create strategy db ~features in
  List.iter (M.apply_batch m) batches;
  m

let check_maintain strategy db ~features batches =
  let m = maintained strategy db ~features batches in
  let same = Rings.Covariance.equal_bits (M.covariance m) (M.recompute m) in
  let residue = if strategy = M.F_ivm then zero_residue_rows m else 0 in
  let detail =
    Printf.sprintf "%s: maintained %s recompute, %d view rows, %d zero-residue"
      (M.strategy_name strategy)
      (if same then "==" else "<>")
      (M.view_rows m) residue
  in
  (m, { layer = "maintain"; ok = same && residue = 0; detail })

let check_shard ~shards db ~features batches ~reference =
  let sh = Fivm.Shard.create M.F_ivm db ~features ~shards in
  List.iter (fun b -> Fivm.Shard.apply_batch sh b) batches;
  let merged = Rings.Covariance.equal_bits (Fivm.Shard.covariance sh) reference in
  let recomputed = Rings.Covariance.equal_bits (Fivm.Shard.recompute sh) reference in
  let detail =
    Printf.sprintf "%d shards on %s: merged %s unsharded, recompute %s" shards
      (Fivm.Shard.plan_attr (Fivm.Shard.plan_of sh))
      (if merged then "==" else "<>")
      (if recomputed then "==" else "<>")
  in
  { layer = "shard"; ok = merged && recomputed; detail }

(* Crash mid-stream with the full damage grammar armed — the torn tail
   shears an acknowledged frame, the survivors are reordered and duplicated
   — then restart from the recovered sequence number and finish the stream.
   The final triple must be bit-identical to a driver that never crashed. *)
let check_resilience ~seed dir db ~features batches ~reference =
  let updates = Array.of_list (List.concat batches) in
  let n = Array.length updates in
  let spec =
    Printf.sprintf "crash-after:%d,torn-tail:3,reorder:4,dup:2" (max 1 (n / 2))
  in
  let faults = Resilience.Faults.parse ~seed spec in
  let cfg = Resilience.Driver.config ~checkpoint_every:64 ~faults dir in
  let make () = M.create M.F_ivm db ~features in
  let restarts = ref 0 in
  let rec drive d i =
    if i >= n then d
    else
      match Resilience.Driver.submit d updates.(i) with
      | Resilience.Driver.Applied | Resilience.Driver.Quarantined _ -> drive d (i + 1)
      | exception Resilience.Faults.Crash _ ->
          incr restarts;
          if !restarts > 8 then failwith "scenario: crash loop";
          (* recovery replays checkpoint + repaired WAL; [seq] is the count
             of committed updates = the index to resume the stream from *)
          let d = Resilience.Driver.create cfg make in
          drive d (Resilience.Driver.seq d)
  in
  let d = drive (Resilience.Driver.create cfg make) 0 in
  let same = Rings.Covariance.equal_bits (Resilience.Driver.covariance d) reference in
  let quarantined = List.length (Resilience.Driver.quarantined d) in
  Resilience.Driver.close d;
  let ok = same && !restarts >= 1 && quarantined = 0 in
  let detail =
    Printf.sprintf "%s: %d restart(s), %d quarantined, recovered %s clean" spec !restarts
      quarantined
      (if same then "==" else "<>")
  in
  { layer = "resilience"; ok; detail }

(* Serve the covariance batch mid-stream and at the end, each time through
   [serve_audit] (cache miss, then refreshed/cached hit). *)
let check_serve db ~features batches =
  let srv = Serve.create M.F_ivm db ~features in
  let batch = Aggregates.Batch.covariance_numeric features in
  let n = List.length batches in
  let half = n / 2 in
  List.iteri (fun i b -> if i < half then Serve.apply_deltas srv b) batches;
  let mid_miss, mid_hit = serve_audit srv batch in
  List.iteri (fun i b -> if i >= half then Serve.apply_deltas srv b) batches;
  let end_miss, end_hit = serve_audit srv batch in
  let ok = mid_miss && mid_hit && end_miss && end_hit in
  let detail =
    Printf.sprintf "mid-stream miss/hit %s/%s, end-of-stream %s/%s"
      (if mid_miss then "==" else "<>")
      (if mid_hit then "==" else "<>")
      (if end_miss then "==" else "<>")
      (if end_hit then "==" else "<>")
  in
  { layer = "serve"; ok; detail }

(* Register linreg-closed mid-stream, refresh it at the end, and audit the
   served parameters against a cold retrain — the warm refresh path must
   not drift. *)
let check_model db ~features batches =
  let srv = Serve.create M.F_ivm db ~features in
  let n = List.length batches in
  let half = max 1 (n / 2) in
  List.iteri (fun i b -> if i < half then Serve.apply_deltas srv b) batches;
  let spec = Ml.Models.find_exn "linreg-closed" in
  let name = Serve.Model.register srv spec ~response:(List.hd features) in
  List.iteri (fun i b -> if i >= half then Serve.apply_deltas srv b) batches;
  let verdict = model_audit ~probes:[] srv name in
  let detail =
    Printf.sprintf "%s@epoch %d: warm-refreshed params %s cold retrain" name
      (Serve.epoch srv)
      (match verdict with Ok () -> "==" | Error e -> "<> (" ^ e ^ ")")
  in
  { layer = "model"; ok = Result.is_ok verdict; detail }

(* Spill the post-stream live set to paged column files, reopen it with a
   2-page cache, and run LMFAO over the streamed database: the result must
   agree bitwise with the in-memory one. *)
let check_streamed dir (m : M.t) ~features =
  let snap = M.snapshot m in
  let batch = Aggregates.Batch.covariance_numeric features in
  let r_mem = Lmfao.Engine.eval_batch snap batch in
  let paged =
    List.map
      (fun rel ->
        ignore (Store.Loader.import_relation ~dir ~page_rows:64 rel);
        Store.Paged.openr ~cache_pages:2 ~dir (Relation.name rel))
      (Database.relations snap)
  in
  let sdb =
    Database.create_streamed
      (Database.name snap ^ "_paged")
      (List.map (fun p -> (Store.Paged.stub p, Some (Store.Paged.stream p))) paged)
  in
  let r_paged = Lmfao.Engine.eval_batch sdb batch in
  List.iter Store.Paged.close paged;
  let ok = same_keyed r_mem r_paged in
  { layer = "streamed"; ok; detail = "lmfao paged " ^ (if ok then "==" else "<>") ^ " mem" }

(* ---- the cell driver ---- *)

let run_cell ?(seed = 42) ?(strategies = [ M.F_ivm; M.Higher_order; M.First_order ])
    ?(shards = [ 1; 4; 8 ]) ?(layers = layers) ~dataset ~shape ~features db =
  Obs.with_span "scenario.cell" @@ fun () ->
  Obs.incr c_cells;
  let db, batches = Sg.hostile ~seed shape db in
  let updates = List.fold_left (fun n b -> n + List.length b) 0 batches in
  let deletes =
    List.fold_left
      (fun n b ->
        n + List.length (List.filter (fun (u : Fivm.Delta.update) -> u.multiplicity < 0) b))
      0 batches
  in
  Obs.add c_updates updates;
  Obs.add c_deletes deletes;
  let checks = ref [] in
  let record (c : check) =
    Obs.incr c_checks;
    if not c.ok then Obs.incr c_failures;
    checks := c :: !checks
  in
  let want layer = List.mem layer layers in
  (* the unsharded F-IVM maintained triple anchors the cross-layer
     differentials; built once, on demand *)
  let ref_m = lazy (maintained M.F_ivm db ~features batches) in
  let reference = lazy (M.covariance (Lazy.force ref_m)) in
  if want "maintain" then
    List.iter
      (fun strategy ->
        let m, c = check_maintain strategy db ~features batches in
        (* every strategy must also land on the SAME triple *)
        let same = Rings.Covariance.equal_bits (M.covariance m) (Lazy.force reference) in
        record
          (if same then c
           else { c with ok = false; detail = c.detail ^ ", diverges from f-ivm" }))
      strategies;
  if want "shard" then
    List.iter
      (fun n ->
        record (check_shard ~shards:n db ~features batches ~reference:(Lazy.force reference)))
      shards;
  if want "resilience" then
    with_temp_dir (fun dir ->
        record
          (check_resilience ~seed dir db ~features batches
             ~reference:(Lazy.force reference)));
  if want "serve" then record (check_serve db ~features batches);
  if want "model" then record (check_model db ~features batches);
  if want "streamed" then
    with_temp_dir (fun dir -> record (check_streamed dir (Lazy.force ref_m) ~features));
  { dataset; shape = Sg.shape_name shape; updates; deletes; checks = List.rev !checks }

let pp_cell ppf (c : cell) =
  Format.fprintf ppf "@[<v>%s x %s: %d updates (%d deletes) — %s@," c.dataset c.shape
    c.updates c.deletes
    (if cell_ok c then "OK" else "FAILED");
  List.iter
    (fun ch ->
      Format.fprintf ppf "  [%s] %-10s %s@," (if ch.ok then "ok" else "FAIL") ch.layer
        ch.detail)
    c.checks;
  Format.fprintf ppf "@]"
