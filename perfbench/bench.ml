(* The repository benchmark: one workload per process, driven by run.py.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   Workloads (all closed loop, one client, default sequential engine
   options, absolute sizes; the seed only picks the generated data):

   - batch-inmem   retailer at generator scale 4 (526,440 tuples) in memory:
                   the covariance and k-means batches through Lmfao.Engine;
   - serve-window  retailer at scale 0.5 on the dyadic lattice, loaded into a
                   Serve (F-IVM): 32-insert + 32-delete rounds, covariance
                   reads refreshed in place, k-means reads recomputed;
   - batch-paged   the scale-4 retailer imported into 1024-row pages and
                   scanned through an 8-page cache per relation.

   Every workload reports the same end-to-end metrics, each the time to
   answer one request kind over the workload's current data:

   - setup_s       median of three set-ups (datagen, plus load or import);
   - peak_heap_mb  Gc top heap once the timed section has run;
   - covar_ms      a covariance answer: LMFAO over memory or pages, or on
                   serve-window one delta round plus the refreshed read
                   (the freshness delay);
   - kmeans_ms     a k-means answer: LMFAO over memory or pages, or the
                   serve-window cache miss (recompute over a snapshot).

   With --trace 1 the workload runs as above, then sets up and reruns its
   timed section with Obs on (obs.overhead_frac.<metric> compares the two),
   then measures each layer by calling its public functions from here;
   every per-layer metric is printed, 0 where the workload gives that
   layer no work.
   Outputs are checked outside the timed regions; every exception or
   mismatch counts as a failed operation. The last stdout line is the JSON
   result. *)

open Relational
module Batch = Aggregates.Batch
module Spec = Aggregates.Spec

let now = Util.Timing.now

(* ------------------------------------------------------------ samples *)

(* Linear-interpolation percentile (numpy's default); [nan] on no data. *)
let percentile p samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = percentile 0.5

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------- failure accounting *)

let attempted = ref 0
let failed = ref 0

let fail what =
  incr failed;
  Printf.printf "FAILED: %s\n%!" what

(* One operation: counted as attempted; an exception counts as failed. *)
let op what f =
  incr attempted;
  match f () with
  | v -> Some v
  | exception e ->
      fail (Printf.sprintf "%s raised %s" what (Printexc.to_string e));
      None

let check what ok =
  incr attempted;
  if not ok then fail what

let sorted_result (r : Spec.result) =
  List.sort (fun (a, _) (b, _) -> compare a b) r

(* Bitwise equality of two keyed result sets, independent of the order the
   engine returned aggregates and groups in. *)
let results_bit_equal (a : (string * Spec.result) list) b =
  let norm l =
    List.sort (fun (x, _) (y, _) -> String.compare x y)
      (List.map (fun (id, r) -> (id, sorted_result r)) l)
  in
  let bits = Int64.bits_of_float in
  let a = norm a and b = norm b in
  List.length a = List.length b
  && List.for_all2
       (fun (ida, ra) (idb, rb) ->
         ida = idb
         && List.length ra = List.length rb
         && List.for_all2
              (fun (ka, va) (kb, vb) -> ka = kb && Int64.equal (bits va) (bits vb))
              ra rb)
       a b

(* ------------------------------------------------------------ metrics *)

let e2e_metrics =
  [ ("setup_s", "s"); ("peak_heap_mb", "MB"); ("covar_ms", "ms"); ("kmeans_ms", "ms") ]

let families = [ "covar"; "kmeans"; "dnode"; "mi" ]

(* Every per-layer metric: name, unit, better direction, and the
   end-to-end metric @ workload it should move. A traced run prints all of
   them; a layer the workload gives no work reads 0. *)
let layer_metrics =
  let fam prefix unit better moves =
    List.map (fun f -> (prefix ^ f, unit, better, moves f)) families
  in
  let inmem f =
    match f with
    | "covar" | "kmeans" -> f ^ "_ms @ batch-inmem, batch-paged"
    | f -> "lmfao.eval_s." ^ f ^ " @ batch-inmem"
  in
  let heap f = inmem f ^ "; peak_heap_mb" in
  let serve m = (m ^ " @ serve-window") in
  let paged m = (m ^ " @ batch-paged") in
  [ ("datagen.generate_s", "s", "lower", "setup_s @ all") ]
  @ fam "lmfao.eval_s." "s" "lower" inmem
  @ fam "lmfao.plan_s." "s" "lower" inmem
  @ fam "lmfao.views." "count" "lower" inmem
  @ fam "lmfao.partials." "count" "lower" inmem
  @ fam "lmfao.shared_away." "count" "higher" inmem
  @ fam "lmfao.minor_words_per_tuple." "words" "lower" heap
  @ fam "lmfao.major_gcs." "count" "lower" heap
  @ fam "lmfao.tuples_scanned." "count" "lower" inmem
  @ fam "lmfao.slope." "ratio" "lower" inmem
  @ [ ("keypack.boxed_frac", "ratio", "lower", "covar_ms, kmeans_ms @ batch-inmem") ]
  @ fam "compile.compile_s." "s" "lower" inmem
  @ fam "compile.run_s." "s" "lower" inmem
  @ [
      ("compile.compile_ms", "ms", "lower", serve "kmeans_ms");
      ("compile.run_ms", "ms", "lower", serve "kmeans_ms");
      ("compile.plan_reuse_frac", "ratio", "higher", serve "kmeans_ms");
      ("fivm.maintain_ms", "ms", "lower", serve "covar_ms");
      ("fivm.storage_insert_us", "us", "lower", serve "covar_ms");
      ("fivm.storage_delete_us", "us", "lower", serve "covar_ms");
      ("fivm.minor_words_per_update", "words", "lower", serve "covar_ms, peak_heap_mb");
      ("fivm.view_rows", "count", "lower", serve "peak_heap_mb");
      ("fivm.storage_tuples", "count", "lower", serve "peak_heap_mb");
      ("ml.refresh_us", "us", "lower", serve "covar_ms");
      ("serve.update_p50_ms", "ms", "lower", serve "covar_ms");
      ("serve.update_p90_ms", "ms", "lower", serve "covar_ms");
      ("serve.hit_p50_us", "us", "lower", serve "covar_ms");
      ("serve.hit_p99_us", "us", "lower", serve "covar_ms");
      ("serve.miss_p50_ms", "ms", "lower", serve "kmeans_ms");
      ("serve.miss_p90_ms", "ms", "lower", serve "kmeans_ms");
      ("serve.fingerprint_us", "us", "lower", serve "covar_ms");
      ("serve.snapshot_ms", "ms", "lower", serve "kmeans_ms");
      ("serve.hit_ratio", "ratio", "higher", serve "covar_ms, kmeans_ms");
      ("serve.refreshes", "count", "higher", serve "covar_ms");
      ("serve.invalidations", "count", "lower", serve "kmeans_ms");
      ("store.import_s", "s", "lower", paged "setup_s");
      ("store.scan_s", "s", "lower", paged "covar_ms, kmeans_ms");
      ("store.page_reads", "count", "lower", paged "covar_ms, kmeans_ms");
      ("store.cache_hit_ratio", "ratio", "higher", paged "covar_ms, kmeans_ms");
      ("store.evictions", "count", "lower", paged "covar_ms, kmeans_ms");
      ("store.cache_pages_peak", "pages", "lower", paged "peak_heap_mb");
      ("baseline.dbx_s.covar", "s", "lower", "nothing (the structure-agnostic yardstick)");
      ("baseline.dbx_s.mi", "s", "lower", "nothing (the structure-agnostic yardstick)");
    ]
  @ List.map
      (fun (m, _) -> ("obs.overhead_frac." ^ m, "ratio", "lower", m ^ " @ each workload, traced"))
      e2e_metrics

let values : (string, float) Hashtbl.t = Hashtbl.create 128
let set name v = Hashtbl.replace values name v
let get name = Option.value ~default:0.0 (Hashtbl.find_opt values name)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* ------------------------------------------------------------- set-up *)

let setups = 3
let ret_features = Datagen.Retailer.features
let batch_scale = 4.0
let serve_scale = 0.5

let generate ~scale seed =
  let db, t = timed (fun () -> Datagen.Retailer.generate ~scale ~seed ()) in
  set "datagen.generate_s" t;
  db

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Set up [setups] times from a collected heap and keep the last data:
   set-up time is the median, so one slow set-up does not move it. *)
let setup build =
  let data = ref None and times = ref [] in
  for _ = 1 to setups do
    data := None;
    Gc.compact ();
    let d, t = timed build in
    data := Some d;
    times := t :: !times
  done;
  set "setup_s" (median !times);
  Option.get !data

(* The shape every workload shares: set up, run the timed [section], then
   [check] its outputs. A traced run drops the data, sets up and runs the
   section again with Obs on, so each obs.overhead_frac compares like with
   like, and checks that second run before measuring the layers. Peak heap
   is the process's top heap, so its overhead reads 0 unless the traced
   run needs more memory than the untraced one. *)
let run_workload ~trace ~build ~section ~check ~layers =
  let run () =
    let data = setup build in
    (data, section data)
  in
  if not trace then begin
    let data, out = run () in
    check data out
  end
  else begin
    ignore (run ());
    let untraced = List.map (fun (m, _) -> (m, get m)) e2e_metrics in
    Obs.reset ();
    Obs.set_enabled true;
    let data, out = run () in
    List.iter (fun (m, u) -> set ("obs.overhead_frac." ^ m) ((get m /. u) -. 1.0)) untraced;
    Obs.with_enabled false (fun () -> check data out);
    layers data out;
    Obs.set_enabled false
  end

let scalar_count (keyed : (string * Spec.result) list) (batch : Batch.t) =
  let count_id =
    List.find_map
      (fun (s : Spec.t) ->
        if s.terms = [] && s.group_by = [] && s.filter = Predicate.True then Some s.id
        else None)
      batch.aggregates
  in
  Option.map (fun id -> Spec.scalar_result (List.assoc id keyed)) count_id

(* ------------------------------------------------------ batch families *)

let family_batch db = function
  | "covar" -> Batch.covariance ret_features
  | "kmeans" -> Batch.kmeans ret_features
  | "dnode" -> Batch.decision_node ~db ret_features
  | "mi" -> Batch.mutual_information Datagen.Retailer.mi_attrs
  | f -> invalid_arg f

(* One cold evaluation of family [f] from a compacted heap, so every sample
   starts from the same collector state; the result and its seconds. With
   Obs on and [record] it also records the family's layer numbers:
   planning, views and sharing, allocation, collections, tuples scanned. *)
let eval_family ?(record = true) db f =
  let batch = family_batch db f in
  let traced = record && Obs.is_enabled () in
  if traced then begin
    let opts = Lmfao.Plan.default_options in
    let (), t =
      timed (fun () ->
          let jt, groups = Lmfao.Plan.group_by_root opts db batch in
          let stats = Lmfao.Plan.fresh_stats () in
          List.iter (fun (root, specs) -> ignore (Lmfao.Plan.build opts ~stats jt ~root specs)) groups)
    in
    set ("lmfao.plan_s." ^ f) t
  end;
  Gc.compact ();
  let scanned0 = Obs.counter_value_by_name "lmfao.tuples_scanned" in
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
  let r = op (f ^ " batch") (fun () -> timed (fun () -> Lmfao.Engine.eval db batch)) in
  let minor = Gc.minor_words () -. minor0 in
  let majors = (Gc.quick_stat ()).Gc.major_collections - major0 in
  (match r with
  | Some ((res : Lmfao.Engine.result), t) when traced ->
      let tuples = float_of_int (Database.total_cardinality db) in
      set ("lmfao.eval_s." ^ f) t;
      set ("lmfao.minor_words_per_tuple." ^ f) (minor /. tuples);
      set ("lmfao.major_gcs." ^ f) (float_of_int majors);
      set ("lmfao.tuples_scanned." ^ f)
        (float_of_int (Obs.counter_value_by_name "lmfao.tuples_scanned" - scanned0));
      set ("lmfao.views." ^ f) (float_of_int res.stats.views);
      set ("lmfao.partials." ^ f) (float_of_int res.stats.partials);
      set ("lmfao.shared_away." ^ f) (float_of_int res.stats.shared_away)
  | _ -> ());
  r

(* The timed section of both batch workloads: passes of one covariance
   and [kmeans_per_pass] k-means batches, interleaved so that both sample
   the whole section, while it is shorter than [seconds] and at least
   [passes] times. Returns the last result of each family for the checks. *)
let kmeans_per_pass = 2

let batch_section ~seconds ~passes db =
  let cs = ref [] and ks = ref [] and rc = ref None and rk = ref None in
  let sample f samples =
    let r = eval_family db f in
    Option.iter (fun (_, t) -> samples := (t *. 1e3) :: !samples) r;
    Option.map fst r
  in
  let t0 = now () and n = ref 0 in
  while !n < passes || now () -. t0 < seconds do
    rc := sample "covar" cs;
    for _ = 1 to kmeans_per_pass do
      rk := sample "kmeans" ks
    done;
    incr n
  done;
  set "covar_ms" (median !cs);
  set "kmeans_ms" (median !ks);
  set "peak_heap_mb" (heap_mb ());
  (!rc, !rk)

(* The compiled tier over in-memory data: one cold compile and run. *)
let compiled_family db f =
  let batch = family_batch db f in
  Gc.compact ();
  match op ("compile " ^ f) (fun () -> timed (fun () -> Compile.Engine.compile db batch)) with
  | Some (plan, tc) ->
      set ("compile.compile_s." ^ f) tc;
      Option.iter
        (fun (_, tr) -> set ("compile.run_s." ^ f) tr)
        (op ("compiled " ^ f) (fun () -> timed (fun () -> Compile.Engine.run plan db)))
  | None -> ()

(* Run [f] in a forked child and wait at most [deadline] seconds for the
   floats it returns: [None] when cut. The child is killed and reaped
   either way; a child that fails without answering raises here. *)
let in_child ~deadline (f : unit -> float list) =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      (* the child never returns into the caller's code *)
      (try
         let oc = Unix.out_channel_of_descr wr in
         output_string oc (String.concat " " (List.map json_number (f ())) ^ "\n");
         close_out oc
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close wr;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          Unix.close rd)
        (fun () ->
          match Unix.select [ rd ] [] [] deadline with
          | [], _, _ -> None
          | _ -> (
              match input_line (Unix.in_channel_of_descr rd) with
              | line -> Some (List.map float_of_string (String.split_on_char ' ' line))
              | exception End_of_file -> failwith "child failed without answering"))

(* The structure-agnostic yardstick: materialise the join, then one scan
   per aggregate. *)
let dbx_baseline db =
  Gc.compact ();
  match op "materialise join" (fun () -> timed (fun () -> Database.materialise_join db)) with
  | Some (join, tj) ->
      List.iter
        (fun f ->
          Option.iter
            (fun (_, t) -> set ("baseline.dbx_s." ^ f) (tj +. t))
            (op ("dbx " ^ f) (fun () ->
                 timed (fun () -> Baseline.Unshared.dbx join (family_batch db f)))))
        [ "covar"; "mi" ]
  | None -> ()

(* ----------------------------------------------------- batch-inmem *)

let batch_inmem ~seed ~seconds ~trace =
  let check db (rc, rk) =
    let covar = family_batch db "covar" in
    check "k-means batch answered" (rk <> None);
    Option.iter
      (fun (r : Lmfao.Engine.result) ->
        (match op "compiled covariance" (fun () -> Compile.Engine.eval_batch db covar) with
        | Some c -> check "covariance: interpreted = compiled (bitwise)" (results_bit_equal r.keyed c)
        | None -> ());
        let rels = Database.relations db in
        match
          op "factorised COUNT" (fun () ->
              Factorized.Fjoin.count rels (Factorized.Var_order.of_relations rels))
        with
        | Some n -> check "COUNT = Fjoin.count" (scalar_count r.keyed covar = Some (float_of_int n))
        | None -> ())
      rc
  in
  let layers db _ =
    let c name = Obs.counter_value_by_name name in
    let packed0 = c "keypack.packed" and boxed0 = c "keypack.boxed" in
    ignore (eval_family db "dnode");
    ignore (eval_family db "mi");
    let packed = c "keypack.packed" - packed0 and boxed = c "keypack.boxed" - boxed0 in
    if packed + boxed > 0 then
      set "keypack.boxed_frac" (float_of_int boxed /. float_of_int (packed + boxed));
    (* the same families at scale 1 for the time-vs-tuples slope *)
    let small = Datagen.Retailer.generate ~scale:1.0 ~seed () in
    let tuples d = float_of_int (Database.total_cardinality d) in
    List.iter
      (fun f ->
        Option.iter
          (fun (_, one) ->
            set ("lmfao.slope." ^ f)
              (log (get ("lmfao.eval_s." ^ f) /. one) /. log (tuples db /. tuples small)))
          (eval_family ~record:false small f))
      families
  in
  run_workload ~trace
    ~build:(fun () -> generate ~scale:batch_scale seed)
    ~section:(batch_section ~seconds ~passes:(if trace then 1 else 2))
    ~check ~layers

(* ----------------------------------------------------- batch-paged *)

let page_rows = 1024
let cache_pages = 8
let work_dir = "_perfbench"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let mkdir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

type paged = { mem : Database.t; sdb : Database.t; files : Store.Paged.t list }

let batch_paged ~seed ~seconds ~trace =
  (* pages live under the working directory (the checkout), one directory
     per set-up, all removed on exit *)
  let root = Filename.concat work_dir (Printf.sprintf "pages-%d" (Unix.getpid ())) in
  let opened = ref [] and count = ref 0 in
  Fun.protect ~finally:(fun () ->
      List.iter Store.Paged.close !opened;
      remove_tree root)
  @@ fun () ->
  mkdir work_dir;
  mkdir root;
  let build () =
    incr count;
    let dir = Filename.concat root (string_of_int !count) in
    mkdir dir;
    let mem = generate ~scale:batch_scale seed in
    let (), t =
      timed (fun () ->
          List.iter
            (fun rel -> ignore (Store.Loader.import_relation ~dir ~page_rows rel))
            (Database.relations mem))
    in
    set "store.import_s" t;
    let files =
      List.map (fun rel -> Store.Paged.openr ~cache_pages ~dir (Relation.name rel)) (Database.relations mem)
    in
    opened := files @ !opened;
    let sdb =
      Database.create_streamed (Database.name mem ^ "_paged")
        (List.map (fun p -> (Store.Paged.stub p, Some (Store.Paged.stream p))) files)
    in
    { mem; sdb; files }
  in
  let section p =
    let c name = Obs.counter_value_by_name name in
    let reads0 = c "store.page_reads" and hits0 = c "store.cache_hits" and evict0 = c "store.evictions" in
    let r = batch_section ~seconds ~passes:(if trace then 1 else 2) p.sdb in
    let reads = c "store.page_reads" - reads0 and hits = c "store.cache_hits" - hits0 in
    set "store.page_reads" (float_of_int reads);
    set "store.evictions" (float_of_int (c "store.evictions" - evict0));
    if reads + hits > 0 then set "store.cache_hit_ratio" (float_of_int hits /. float_of_int (reads + hits));
    r
  in
  (* paged = in-memory bit for bit, and the cache stays within its budget
     on a counted k-means pass *)
  let check p (rc, rk) =
    List.iter
      (fun (f, r) ->
        match r with
        | Some (r : Lmfao.Engine.result) -> (
            match op ("in-memory " ^ f) (fun () -> Lmfao.Engine.eval_batch p.mem (family_batch p.mem f)) with
            | Some m -> check (f ^ ": paged = in-memory (bitwise)") (results_bit_equal r.keyed m)
            | None -> ())
        | None -> check (f ^ " answered") false)
      [ ("covar", rc); ("kmeans", rk) ];
    let peak = Obs.gauge "store.cache_pages_peak" in
    Obs.with_enabled true (fun () ->
        Obs.set_gauge peak 0.0;
        ignore (op "counted k-means pass" (fun () -> Lmfao.Engine.eval p.sdb (family_batch p.mem "kmeans"))));
    check "store.cache_pages_peak <= budget" (Obs.gauge_value peak <= float_of_int cache_pages)
  in
  let layers p _ =
    set "store.cache_pages_peak" (Obs.gauge_value (Obs.gauge "store.cache_pages_peak"));
    Obs.set_enabled false;
    Gc.compact ();
    set "store.scan_s" (snd (timed (fun () -> List.iter (fun f -> Store.Paged.iter_chunks f ignore) p.files)));
    (* the compiled tier and the baseline over the same data in memory *)
    List.iter (compiled_family p.mem) [ "covar"; "kmeans"; "dnode" ];
    dbx_baseline p.mem
  in
  run_workload ~trace ~build ~section ~check ~layers

(* ---------------------------------------------------- serve-window *)

let window = 32
let reads_per_round = 8
let miss_every = 3
let audit_every = 25
let reserve_rounds = 360

(* 300 rounds give 100 misses and 2,400 hits: ten or more samples beyond
   every percentile the traced run reports *)
let min_rounds = 300
let replay_rounds = 40
let mi_deadline = 30.0
let response = "inventoryunits"
let ivm_features = Datagen.Retailer.ivm_features
let cov_batch = Batch.covariance_numeric ivm_features
let kmeans_batch = Batch.kmeans ret_features
let linreg () = Ml.Models.find_exn "linreg-closed"

type server = {
  db : Database.t;  (** the generated data, for its schemas *)
  srv : Serve.t;
  model : string;
  reserve : Fivm.Delta.update Queue.t;  (** facts out of the live set, next in first *)
  live : Fivm.Delta.update Queue.t;  (** inserted facts, oldest first *)
  base : Fivm.Delta.update list;  (** the initial load *)
}

(* Dimensions plus all but [reserve_rounds * window] facts, loaded in one
   delta batch; the model is registered and the covariance answer cached. *)
let load_server seed =
  let db = Datagen.Stream_gen.lattice_database (generate ~scale:serve_scale seed) in
  let fact = Relation.name (Datagen.Stream_gen.fact_relation db) in
  let stream = Datagen.Stream_gen.inserts_of_database ~seed db in
  let dims, facts = List.partition (fun (u : Fivm.Delta.update) -> u.relation <> fact) stream in
  let loaded = List.length facts - (reserve_rounds * window) in
  let live = Queue.create () and reserve = Queue.create () in
  List.iteri (fun i u -> Queue.push u (if i < loaded then live else reserve)) facts;
  let base = dims @ List.of_seq (Queue.to_seq live) in
  let srv = Serve.create Fivm.Maintainer.F_ivm db ~features:ivm_features in
  Serve.apply_deltas srv base;
  let model = Serve.Model.register srv ~max_staleness:0 (linreg ()) ~response in
  ignore (Serve.serve srv cov_batch);
  { db; srv; model; reserve; live; base }

(* One round: the next [window] reserved facts in, the [window] oldest live
   facts out and to the back of the reserve, so the live set keeps its size
   and rounds never run out. *)
let round_updates s =
  let ins = List.init window (fun _ -> Queue.pop s.reserve) in
  let dels =
    List.init window (fun _ ->
        let u = Queue.pop s.live in
        Queue.push u s.reserve;
        Fivm.Delta.delete u.Fivm.Delta.relation u.tuple)
  in
  List.iter (fun u -> Queue.push u s.live) ins;
  ins @ dels

let probe name = Value.Float (float_of_int (1 + (Hashtbl.hash name mod 64)) /. 16.0)

let encode_packed p =
  let b = Buffer.create 256 in
  Ml.Model_intf.encode_packed b p;
  Buffer.contents b

(* Served answers against a fresh interpreter run over the snapshot (exact
   on the lattice), and the served model against a cold train from
   recomputed moments. Both answers were served at the current epoch. *)
let audit_server s ~cov ~kmeans =
  Obs.with_enabled false @@ fun () ->
  let snap = Serve.snapshot s.srv in
  List.iter
    (fun (what, batch, served) ->
      match op ("fresh " ^ what) (fun () -> Lmfao.Engine.eval_batch snap batch) with
      | Some fresh -> check ("served " ^ what ^ " = fresh eval (bitwise)") (results_bit_equal served fresh)
      | None -> ())
    [ ("covariance", cov_batch, cov); ("k-means", kmeans_batch, kmeans) ];
  match
    op "cold linreg-closed" (fun () ->
        Ml.Model_intf.train_packed (linreg ())
          (Ml.Model_intf.moments_of_covariance
             (Fivm.Maintainer.recompute (Serve.maintainer s.srv))
             ~features:ivm_features ~response))
  with
  | Some cold ->
      let warm, epoch = Serve.Model.packed s.srv s.model in
      check "model epoch = data epoch" (epoch = Serve.epoch s.srv);
      check "served model = cold train (bitwise)" (String.equal (encode_packed warm) (encode_packed cold))
  | None -> ()

type window_run = {
  rounds : Fivm.Delta.update list list;  (** applied rounds, oldest first *)
  last_cov : (string * Spec.result) list;
  updates : float list;  (** ms *)
  hits : float list;  (** us *)
  misses : float list;  (** ms *)
  stats0 : Serve.stats;
  stats1 : Serve.stats;
}

(* Rounds while the section is shorter than [seconds], and at least
   [min_rounds]: one delta round, [reads_per_round] covariance reads
   and a prediction, and every [miss_every]th round a k-means read. Every
   [audit_every]th k-means read is audited, outside the timed regions. *)
let window_section ~seconds s =
  let stats0 = Serve.stats s.srv in
  let updates = ref [] and fresh = ref [] and hits = ref [] and misses = ref [] in
  let rounds = ref [] and last_cov = ref [] in
  let t0 = now () and r = ref 0 in
  while !r < min_rounds || now () -. t0 < seconds do
    let batch = round_updates s in
    rounds := batch :: !rounds;
    (match op "delta round" (fun () -> timed (fun () -> Serve.apply_deltas s.srv batch)) with
    | Some ((), t) ->
        updates := (t *. 1e3) :: !updates;
        for i = 1 to reads_per_round do
          match op "covariance read" (fun () -> timed (fun () -> Serve.serve s.srv cov_batch)) with
          | Some (res, th) ->
              hits := (th *. 1e6) :: !hits;
              if i = 1 then fresh := ((t +. th) *. 1e3) :: !fresh;
              last_cov := res
          | None -> ()
        done;
        ignore (op "model predict" (fun () -> Serve.Model.predict s.srv s.model probe))
    | None -> ());
    (if !r mod miss_every = miss_every - 1 then
       match op "k-means read" (fun () -> timed (fun () -> Serve.serve s.srv kmeans_batch)) with
       | Some (kmeans, t) ->
           misses := (t *. 1e3) :: !misses;
           if List.length !misses mod audit_every = 0 then audit_server s ~cov:!last_cov ~kmeans
       | None -> ());
    incr r
  done;
  set "covar_ms" (median !fresh);
  set "kmeans_ms" (median !misses);
  set "peak_heap_mb" (heap_mb ());
  Printf.printf "serve-window: %d tuples, %d live facts; %d rounds, %d covariance reads, %d k-means reads\n%!"
    (Database.total_cardinality s.db) (Queue.length s.live) !r (List.length !hits) (List.length !misses);
  {
    rounds = List.rev !rounds;
    last_cov = !last_cov;
    updates = !updates;
    hits = !hits;
    misses = !misses;
    stats0;
    stats1 = Serve.stats s.srv;
  }

let window_check s w =
  Option.iter
    (fun kmeans -> audit_server s ~cov:w.last_cov ~kmeans)
    (op "final k-means read" (fun () -> Serve.serve s.srv kmeans_batch))

let window_layers ~seed s w =
  set "serve.update_p50_ms" (median w.updates);
  set "serve.update_p90_ms" (percentile 0.9 w.updates);
  set "serve.hit_p50_us" (median w.hits);
  set "serve.hit_p99_us" (percentile 0.99 w.hits);
  set "serve.miss_p50_ms" (median w.misses);
  set "serve.miss_p90_ms" (percentile 0.9 w.misses);
  let d f = float_of_int (f w.stats1 - f w.stats0) in
  let h = d (fun x -> x.Serve.hits) and m = d (fun x -> x.Serve.misses) in
  set "serve.hit_ratio" (h /. Float.max 1.0 (h +. m));
  set "serve.refreshes" (d (fun x -> x.Serve.refreshes));
  set "serve.invalidations" (d (fun x -> x.Serve.invalidations));
  Obs.set_enabled false;
  set "serve.fingerprint_us"
    (median (List.init 1000 (fun _ -> snd (timed (fun () -> Batch.fingerprint cov_batch)))) *. 1e6);
  set "serve.snapshot_ms"
    (median (List.init 5 (fun _ -> snd (timed (fun () -> Serve.snapshot s.srv)))) *. 1e3);
  (* the compiled tier on the miss batch, cold, over the current snapshot *)
  let snap = Serve.snapshot s.srv in
  (match op "compile k-means" (fun () -> timed (fun () -> Compile.Engine.compile snap kmeans_batch)) with
  | Some (plan, tc) ->
      set "compile.compile_ms" (tc *. 1e3);
      Option.iter
        (fun (_, tr) -> set "compile.run_ms" (tr *. 1e3))
        (op "compiled k-means" (fun () -> timed (fun () -> Compile.Engine.run plan snap)))
  | None -> ());
  (* the first rounds again through the bare maintainer and storage *)
  let rounds = List.filteri (fun i _ -> i < replay_rounds) w.rounds in
  let m = Fivm.Maintainer.create Fivm.Maintainer.F_ivm s.db ~features:ivm_features in
  Fivm.Maintainer.apply_batch m s.base;
  let minor0 = Gc.minor_words () in
  let maint = List.map (fun b -> snd (timed (fun () -> Fivm.Maintainer.apply_batch m b))) rounds in
  let n_updates = List.fold_left (fun n b -> n + List.length b) 0 rounds in
  set "fivm.minor_words_per_update" ((Gc.minor_words () -. minor0) /. float_of_int n_updates);
  set "fivm.maintain_ms" (median maint *. 1e3);
  set "fivm.view_rows" (float_of_int (Fivm.Maintainer.view_rows m));
  set "fivm.storage_tuples" (float_of_int (Fivm.Storage.total_tuples (Fivm.Maintainer.storage m)));
  let store = Fivm.Storage.create s.db in
  List.iter (Fivm.Storage.apply store) s.base;
  let ins = ref [] and dels = ref [] in
  List.iter
    (List.iter (fun (u : Fivm.Delta.update) ->
         let t = snd (timed (fun () -> Fivm.Storage.apply store u)) in
         if u.multiplicity > 0 then ins := t :: !ins else dels := t :: !dels))
    rounds;
  set "fivm.storage_insert_us" (median !ins *. 1e6);
  set "fivm.storage_delete_us" (median !dels *. 1e6);
  (* model refresh alone: a second registration that apply_deltas leaves
     stale, refreshed explicitly after each of a few more rounds; and how
     often the miss batch's compiled plan survives a round *)
  let name =
    Serve.Model.register s.srv ~name:"refresh-probe" ~max_staleness:max_int (linreg ()) ~response
  in
  let plan = ref None and reuse = ref [] and refresh = ref [] in
  for _ = 1 to 10 do
    Serve.apply_deltas s.srv (round_updates s);
    refresh := snd (timed (fun () -> Serve.Model.refresh s.srv name)) :: !refresh;
    let snap = Serve.snapshot s.srv in
    Option.iter (fun p -> reuse := Compile.Engine.reusable p snap kmeans_batch :: !reuse) !plan;
    plan := Some (Compile.Engine.compile snap kmeans_batch)
  done;
  set "ml.refresh_us" (median !refresh *. 1e6);
  set "compile.plan_reuse_frac"
    (float_of_int (List.length (List.filter Fun.id !reuse))
    /. Float.max 1.0 (float_of_int (List.length !reuse)));
  (* the mutual-information batch through the compiled tier on the
     batch-inmem data takes about a minute today, its cost growing far
     faster than the data: it runs in a child process, cut after
     [mi_deadline] seconds so that this traced run stays within its time
     limit; a cut run reads the deadline *)
  match
    op "compiled mi" (fun () ->
        in_child ~deadline:mi_deadline (fun () ->
            let db = Datagen.Retailer.generate ~scale:batch_scale ~seed () in
            let batch = family_batch db "mi" in
            let plan, tc = timed (fun () -> Compile.Engine.compile db batch) in
            let (_ : (string * Spec.result) list), tr = timed (fun () -> Compile.Engine.run plan db) in
            [ tc; tr ]))
  with
  | Some (Some [ tc; tr ]) ->
      set "compile.compile_s.mi" tc;
      set "compile.run_s.mi" tr
  | Some None ->
      Printf.printf "compiled mi: cut after %.0f s\n" mi_deadline;
      set "compile.run_s.mi" mi_deadline
  | Some (Some _) -> fail "compiled mi: malformed child output"
  | None -> ()

let serve_window ~seed ~seconds ~trace =
  run_workload ~trace
    ~build:(fun () -> load_server seed)
    ~section:(window_section ~seconds)
    ~check:window_check ~layers:(window_layers ~seed)

(* --------------------------------------------------------------- main *)

let workloads =
  [ ("batch-inmem", batch_inmem); ("serve-window", serve_window); ("batch-paged", batch_paged) ]

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " batch-inmem | serve-window | batch-paged");
      ("--seed", Arg.Set_int seed, " data seed (required)");
      ("--seconds", Arg.Set_float seconds, " minimum length of the timed section");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics instead of end-to-end");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run when !seed >= 0 -> run
    | _ ->
        prerr_endline "bench: --workload must name a workload and --seed must be >= 0";
        exit 2
  in
  Obs.set_enabled false;
  (* one domain: the workloads are single-client and sequential *)
  Util.Pool.set_worker_budget 0;
  Printf.printf "# %s, seed %d, ocaml %s, recommended domains %d\n%!" !workload !seed
    Sys.ocaml_version (Domain.recommended_domain_count ());
  let trace = !trace = 1 in
  run ~seed:!seed ~seconds:!seconds ~trace;
  let names =
    if trace then begin
      List.iter
        (fun (n, u, better, moves) ->
          Printf.printf "layer %-36s %16.6f %-6s %-6s -> %s\n" n (get n) u better moves)
        layer_metrics;
      List.map (fun (n, u, _, _) -> (n, u)) layer_metrics
    end
    else e2e_metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun (n, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number (get n)) u)
          names))
