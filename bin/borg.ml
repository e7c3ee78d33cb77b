(* borg: command-line driver for the relational-data-borg library.

     borg generate retailer --scale 0.1 --out /tmp/retailer
     borg train retailer --scale 0.1
     borg tree retailer --depth 4
     borg batches
     borg ivm retailer --method fivm --limit 20000

   See README.md for the library API; the benchmark harness regenerating the
   paper's figures lives in bench/main.exe. *)

open Cmdliner
open Relational
module Sg = Datagen.Stream_gen

type dataset_spec = {
  generate : ?scale:float -> seed:int -> unit -> Database.t;
  features : Aggregates.Feature.t;
  ivm_features : string list;
  mi_attrs : string list;
}

let datasets =
  [
    ( "retailer",
      {
        generate = Datagen.Retailer.generate;
        features = Datagen.Retailer.features;
        ivm_features = Datagen.Retailer.ivm_features;
        mi_attrs = Datagen.Retailer.mi_attrs;
      } );
    ( "favorita",
      {
        generate = Datagen.Favorita.generate;
        features = Datagen.Favorita.features;
        ivm_features = Datagen.Favorita.ivm_features;
        mi_attrs = Datagen.Favorita.mi_attrs;
      } );
    ( "yelp",
      {
        generate = Datagen.Yelp.generate;
        features = Datagen.Yelp.features;
        ivm_features = Datagen.Yelp.ivm_features;
        mi_attrs = Datagen.Yelp.mi_attrs;
      } );
    ( "tpcds",
      {
        generate = Datagen.Tpcds.generate;
        features = Datagen.Tpcds.features;
        ivm_features = Datagen.Tpcds.ivm_features;
        mi_attrs = Datagen.Tpcds.mi_attrs;
      } );
  ]

let dataset_arg =
  let dconv =
    Arg.enum (List.map (fun (name, spec) -> (name, (name, spec))) datasets)
  in
  Arg.(required & pos 0 (some dconv) None & info [] ~docv:"DATASET")

let scale_arg =
  Arg.(value & opt float 0.1 & info [ "scale" ] ~docv:"S" ~doc:"Dataset scale factor.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let strategies =
  [
    ("fivm", Fivm.Maintainer.F_ivm);
    ("higher", Fivm.Maintainer.Higher_order);
    ("first", Fivm.Maintainer.First_order);
  ]

let method_arg =
  Arg.(value & opt (enum strategies) Fivm.Maintainer.F_ivm
       & info [ "method" ] ~docv:"M" ~doc:"Maintenance strategy: fivm | higher | first.")

(* ---- observability flags (shared by every workload command) ---- *)

let trace_arg =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:"Enable observability and print the span/counter report to stderr.")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Enable observability and write the metrics snapshot as JSON to $(docv).")

(* Run a command body with observability switched on when either flag asks
   for it; the report/export happens even if the body raises. *)
let with_obs trace metrics_out f =
  let enabled = trace || metrics_out <> None in
  if not enabled then f ()
  else begin
    Obs.reset ();
    Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        if trace then Format.eprintf "%a@." Obs.pp_report ();
        Option.iter
          (fun path ->
            try Obs.write_file path
            with Sys_error msg ->
              Printf.eprintf "borg: cannot write metrics: %s\n" msg;
              exit 1)
          metrics_out)
      f
  end

(* ---- generate ---- *)

let generate_cmd =
  let out_arg =
    Arg.(value & opt string "." & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run (name, spec) scale seed out trace metrics_out =
    with_obs trace metrics_out @@ fun () ->
    let db = spec.generate ~scale ~seed () in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    List.iter
      (fun rel ->
        let path = Filename.concat out (Relation.name rel ^ ".csv") in
        let headers = [ Schema.names (Relation.schema rel) ] in
        Util.Csvio.write_file path (headers @ Relation.csv_rows rel);
        Printf.printf "wrote %s (%d tuples)\n" path (Relation.cardinality rel))
      (Database.relations db);
    Printf.printf "dataset %s at scale %g: %d tuples total\n" name scale
      (Database.total_cardinality db)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic dataset as CSV files.")
    Term.(const run $ dataset_arg $ scale_arg $ seed_arg $ out_arg $ trace_arg
          $ metrics_out_arg)

(* ---- train ---- *)

let train_cmd =
  let run (name, spec) scale seed trace metrics_out =
    with_obs trace metrics_out @@ fun () ->
    let db = spec.generate ~scale ~seed () in
    Printf.printf "training ridge linear regression over %s (scale %g)...\n" name scale;
    let r = Ml.Model_intf.timed_fit (module Ml.Linreg.Model) db spec.features in
    Printf.printf "batch: %d aggregates in %s; solve: %s (%d steps)\n"
      r.aggregate_count
      (Util.Timing.to_string r.stats_seconds)
      (Util.Timing.to_string r.solve_seconds)
      r.model.iterations_run;
    let join = Database.materialise_join db in
    Printf.printf "train RMSE: %.4f over %d rows\n"
      (Ml.Linreg.rmse_on r.model join)
      (Relation.cardinality join);
    let top =
      List.sort
        (fun (_, a) (_, b) -> compare (Float.abs b) (Float.abs a))
        (Array.to_list
           (Array.mapi (fun i c -> (c, r.model.weights.(i))) r.model.feature_columns))
    in
    Printf.printf "largest weights:\n";
    List.iteri
      (fun i (c, w) -> if i < 10 then Printf.printf "  %-30s %+10.4f\n" c w)
      top
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Train linear regression via the aggregate batch.")
    Term.(const run $ dataset_arg $ scale_arg $ seed_arg $ trace_arg $ metrics_out_arg)

(* ---- tree ---- *)

let tree_cmd =
  let depth_arg =
    Arg.(value & opt int 4 & info [ "depth" ] ~docv:"D" ~doc:"Maximum tree depth.")
  in
  let run (name, spec) scale seed depth trace metrics_out =
    with_obs trace metrics_out @@ fun () ->
    let db = spec.generate ~scale ~seed () in
    Printf.printf "training a depth-%d regression tree over %s...\n" depth name;
    let tree, seconds =
      Util.Timing.time (fun () ->
          Ml.Decision_tree.train
            ~params:{ Ml.Decision_tree.default_params with max_depth = depth }
            db spec.features)
    in
    Printf.printf "trained in %s (%d nodes)\n" (Util.Timing.to_string seconds)
      (Ml.Decision_tree.size tree);
    Format.printf "%a@." (Ml.Decision_tree.pp ?indent:None) tree
  in
  Cmd.v
    (Cmd.info "tree" ~doc:"Train a CART regression tree from aggregate batches.")
    Term.(const run $ dataset_arg $ scale_arg $ seed_arg $ depth_arg $ trace_arg
          $ metrics_out_arg)

(* ---- batches ---- *)

let batches_cmd =
  let run () =
    Printf.printf "%-12s %16s %16s %16s %12s\n" "dataset" "covariance"
      "decision-node" "mutual-info" "k-means";
    List.iter
      (fun (name, spec) ->
        Printf.printf "%-12s %16d %16d %16d %12d\n" name
          (Aggregates.Batch.size (Aggregates.Batch.covariance spec.features))
          (Aggregates.Batch.size (Aggregates.Batch.decision_node spec.features))
          (Aggregates.Batch.size (Aggregates.Batch.mutual_information spec.mi_attrs))
          (Aggregates.Batch.size (Aggregates.Batch.kmeans spec.features)))
      datasets
  in
  Cmd.v
    (Cmd.info "batches" ~doc:"Print aggregate batch sizes per workload (Figure 5).")
    Term.(const run $ const ())

(* ---- ivm ---- *)

let ivm_cmd =
  let limit_arg =
    Arg.(value & opt int max_int & info [ "limit" ] ~docv:"N" ~doc:"Insert at most N tuples.")
  in
  let run (name, spec) scale seed strategy limit trace metrics_out =
    with_obs trace metrics_out @@ fun () ->
    let db = spec.generate ~scale ~seed () in
    let stream = Datagen.Stream_gen.inserts_of_database db in
    let m = Fivm.Maintainer.create strategy db ~features:spec.ivm_features in
    let batch =
      List.filteri (fun i _ -> i < limit) stream
    in
    let n = ref (List.length batch) in
    let seconds =
      Util.Timing.time_only (fun () -> Fivm.Maintainer.apply_batch m batch)
    in
    Printf.printf "%s over %s: %d inserts in %s (%.0f tuples/s)\n"
      (Fivm.Maintainer.strategy_name strategy)
      name !n
      (Util.Timing.to_string seconds)
      (float_of_int !n /. seconds);
    let cov = Fivm.Maintainer.covariance m in
    Printf.printf "maintained join count: %g\n" (Rings.Covariance.count cov)
  in
  Cmd.v
    (Cmd.info "ivm" ~doc:"Maintain the covariance matrix under an insert stream.")
    Term.(const run $ dataset_arg $ scale_arg $ seed_arg $ method_arg $ limit_arg
          $ trace_arg $ metrics_out_arg)

(* ---- maintain: resilient IVM with WAL, checkpoints and fault injection ---- *)

let maintain_cmd =
  let limit_arg =
    Arg.(value & opt int max_int & info [ "limit" ] ~docv:"N" ~doc:"Insert at most N tuples.")
  in
  let dir_arg =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-dir" ] ~docv:"DIR"
             ~doc:"WAL and checkpoint directory (kept across restarts). Defaults to a \
                   fresh temporary directory, removed on exit.")
  in
  let every_arg =
    Arg.(value & opt int 256
         & info [ "checkpoint-every" ] ~docv:"K" ~doc:"Commits between checkpoints (0: never).")
  in
  let audit_arg =
    Arg.(value & opt int 0
         & info [ "audit-every" ] ~docv:"K"
             ~doc:"Commits between audits of the maintained covariance against a \
                   from-scratch recomputation (0: never).")
  in
  let faults_arg =
    (* validate the spec at parse time so a typo is a usage error, not an
       uncaught Invalid_argument later *)
    let fconv =
      let parse s =
        match Resilience.Faults.parse ~seed:0 s with
        | _ -> Ok s
        | exception Invalid_argument msg -> Error (`Msg msg)
      in
      Arg.conv (parse, Format.pp_print_string)
    in
    Arg.(value & opt (some fconv) None
         & info [ "inject-faults" ] ~docv:"SPEC" ~doc:(Resilience.Faults.grammar ^ "."))
  in
  let restarts_arg =
    Arg.(value & opt int 3
         & info [ "restarts" ] ~docv:"R"
             ~doc:"Recover and resume after at most R injected crashes.")
  in
  let verify_arg =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"After the stream, replay it through a bare maintainer and fail unless \
                   the recovered covariance is bit-identical.")
  in
  let shards_arg =
    let default =
      match Sys.getenv_opt "BORG_SHARDS" with
      | Some s -> ( try Stdlib.max 1 (int_of_string s) with _ -> 1)
      | None -> 1
    in
    Arg.(value & opt int default
         & info [ "shards" ] ~docv:"N"
             ~doc:"Hash-partition the stream into N shards maintained in parallel, \
                   each with its own WAL and checkpoints under \
                   $(b,checkpoint-dir)/shard-k. Defaults to $(b,BORG_SHARDS) \
                   or 1 (the single-shard driver).")
  in
  let digest_out_arg =
    Arg.(value & opt (some string) None
         & info [ "digest-out" ] ~docv:"FILE"
             ~doc:"Write a hex CRC-32 digest of the final covariance's bit pattern \
                   to $(docv); identical digests mean bit-identical results.")
  in
  let run (name, spec) scale seed strategy limit dir every audit faults_spec restarts
      verify shards digest_out trace metrics_out =
    with_obs trace metrics_out @@ fun () ->
    let db = spec.generate ~scale ~seed () in
    let stream =
      Array.of_list
        (List.filteri (fun i _ -> i < limit) (Datagen.Stream_gen.inserts_of_database db))
    in
    let with_dir f = match dir with Some d -> f d | None -> Scenario.with_temp_dir f in
    with_dir @@ fun dir ->
    let make () = Fivm.Maintainer.create strategy db ~features:spec.ivm_features in
    let t0 = Unix.gettimeofday () in
    (* Single shard: the bare driver with an in-process restart loop.
       Sharded: per-shard drivers with in-task recovery (Resilience.Sharded). *)
    let cov, committed, crashes, quarantined, reference =
      if shards <= 1 then begin
        let faults =
          match faults_spec with
          | Some s -> Resilience.Faults.parse ~seed s
          | None -> Resilience.Faults.none ()
        in
        let cfg =
          Resilience.Driver.config ~checkpoint_every:every ~audit_every:audit ~faults dir
        in
        let crashes = ref 0 in
        let rec go d =
          let from = Resilience.Driver.seq d in
          match
            for i = from to Array.length stream - 1 do
              ignore (Resilience.Driver.submit d stream.(i))
            done
          with
          | () -> d
          | exception Resilience.Faults.Crash msg ->
              incr crashes;
              Printf.printf "crash %d: %s\n%!" !crashes msg;
              if !crashes > restarts then begin
                Printf.eprintf "borg maintain: restart budget (%d) exhausted\n" restarts;
                exit 1
              end;
              let d' = Resilience.Driver.create cfg make in
              Printf.printf "recovered to seq %d, resuming\n%!" (Resilience.Driver.seq d');
              go d'
        in
        let d = go (Resilience.Driver.create cfg make) in
        let cov = Resilience.Driver.covariance d in
        let committed = Resilience.Driver.seq d in
        let quarantined = List.length (Resilience.Driver.quarantined d) in
        Resilience.Driver.close d;
        let reference () =
          let m = make () in
          Array.iter (Fivm.Maintainer.apply m) stream;
          Fivm.Maintainer.covariance m
        in
        (cov, committed, !crashes, quarantined, reference)
      end
      else begin
        let plan = Fivm.Shard.plan ~shards db in
        let faults k =
          match faults_spec with
          | Some s -> Resilience.Faults.parse ~seed:(seed + k) s
          | None -> Resilience.Faults.none ()
        in
        let sh =
          Resilience.Sharded.create ~checkpoint_every:every ~audit_every:audit
            ~max_restarts:restarts ~faults ~dir ~plan make
        in
        (match Resilience.Sharded.submit_batch sh (Array.to_list stream) with
        | () -> ()
        | exception Failure msg ->
            Printf.eprintf "borg maintain: %s\n" msg;
            exit 1);
        let cov = Resilience.Sharded.covariance sh in
        let committed = Resilience.Sharded.seq sh in
        let crashes = Resilience.Sharded.crashes sh in
        let quarantined = List.length (Resilience.Sharded.quarantined sh) in
        Resilience.Sharded.close sh;
        let reference () =
          let clean =
            Fivm.Shard.create strategy db ~features:spec.ivm_features ~shards
          in
          Array.iter (Fivm.Shard.apply clean) stream;
          Fivm.Shard.covariance clean
        in
        Printf.printf "sharded over %d shards on %s (per-shard commits:%s)\n" shards
          (Fivm.Shard.plan_attr plan)
          (String.concat ""
             (Array.to_list
                (Array.map (Printf.sprintf " %d") (Resilience.Sharded.seqs sh))));
        (cov, committed, crashes, quarantined, reference)
      end
    in
    let seconds = Unix.gettimeofday () -. t0 in
    let n = Array.length stream in
    Printf.printf
      "%s over %s: %d updates committed in %s (%.0f tuples/s), %d crash(es), %d quarantined\n"
      (Fivm.Maintainer.strategy_name strategy)
      name committed
      (Util.Timing.to_string seconds)
      (float_of_int n /. seconds)
      crashes quarantined;
    Printf.printf "maintained join count: %g\n" (Rings.Covariance.count cov);
    Option.iter
      (fun path ->
        let buf = Buffer.create 4096 in
        Rings.Covariance.encode buf cov;
        let digest = Printf.sprintf "%08x\n" (Util.Checksum.crc32 (Buffer.contents buf)) in
        let oc = open_out path in
        output_string oc digest;
        close_out oc;
        Printf.printf "digest: %s" digest)
      digest_out;
    if verify then begin
      if Rings.Covariance.equal_bits cov (reference ()) then
        Printf.printf "verify: recovered covariance is bit-identical to the clean run\n"
      else begin
        Printf.eprintf "borg maintain: recovered covariance DIVERGES from the clean run\n";
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "maintain"
       ~doc:
         "Maintain the covariance matrix resiliently: WAL + checkpoints, optional \
          fault injection, crash recovery, quarantine and audits, optionally \
          hash-partitioned over N parallel shards.")
    Term.(const run $ dataset_arg $ scale_arg $ seed_arg $ method_arg $ limit_arg
          $ dir_arg $ every_arg $ audit_arg $ faults_arg $ restarts_arg $ verify_arg
          $ shards_arg $ digest_out_arg $ trace_arg $ metrics_out_arg)

(* ---- agg: run an aggregate batch through a selectable engine ---- *)

let engines : Aggregates.Engine_intf.t list =
  [
    (module Lmfao.Engine);
    (module Baseline.Agnostic);
    (module Baseline.Unshared.Dbx);
    (module Baseline.Unshared.Monet);
  ]

let engine_names =
  String.concat ", " (List.map Aggregates.Engine_intf.name engines)

let agg_cmd =
  let engine_arg =
    (* resolved through the registry so any registered engine is
       selectable; a typo reports the known names *)
    let econv =
      let parse s =
        match Aggregates.Engine_intf.find engines s with
        | Some e -> Ok e
        | None ->
            Error
              (`Msg
                 (Printf.sprintf "unknown engine '%s' (known engines: %s)" s
                    engine_names))
      in
      let print fmt e =
        Format.pp_print_string fmt (Aggregates.Engine_intf.name e)
      in
      Arg.conv (parse, print)
    in
    Arg.(value & opt econv (List.hd engines)
         & info [ "engine" ] ~docv:"E"
             ~doc:(Printf.sprintf "Aggregate engine: %s." engine_names))
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:
               "Audit the result: evaluate the batch twice (bitwise for \
                lmfao, numerically otherwise) and compare numerically \
                against flat evaluation over the materialised join. Exits 1 \
                on divergence.")
  in
  let batch_arg =
    let bconv =
      Arg.enum
        [
          ("covariance", `Covariance);
          ("decision-node", `Decision_node);
          ("mutual-info", `Mutual_info);
          ("kmeans", `Kmeans);
        ]
    in
    Arg.(value & opt bconv `Covariance
         & info [ "batch" ] ~docv:"B"
             ~doc:"Batch: covariance | decision-node | mutual-info | kmeans.")
  in
  let run (name, spec) scale seed engine batch_name check trace metrics_out =
    with_obs trace metrics_out @@ fun () ->
    let db = spec.generate ~scale ~seed () in
    let batch =
      match batch_name with
      | `Covariance -> Aggregates.Batch.covariance spec.features
      | `Decision_node -> Aggregates.Batch.decision_node spec.features
      | `Mutual_info -> Aggregates.Batch.mutual_information spec.mi_attrs
      | `Kmeans -> Aggregates.Batch.kmeans spec.features
    in
    Printf.printf "engine %s: %s\n"
      (Aggregates.Engine_intf.name engine)
      (Aggregates.Engine_intf.description engine);
    let results, seconds =
      Util.Timing.time (fun () -> Aggregates.Engine_intf.eval engine db batch)
    in
    Printf.printf "batch %s over %s (scale %g): %d aggregates in %s\n"
      batch.Aggregates.Batch.name
      name scale (List.length results) (Util.Timing.to_string seconds);
    List.iter
      (fun (id, rows) -> Printf.printf "  %-24s %6d group(s)\n" id (List.length rows))
      results;
    if check then begin
      let ename = Aggregates.Engine_intf.name engine in
      let again = Aggregates.Engine_intf.eval engine db batch in
      let reference =
        Aggregates.Batch.eval_flat (Database.materialise_join db) batch
      in
      let bitwise = String.equal ename Lmfao.Engine.name in
      (* flat evaluation has no group that no join row reaches, where an
         engine may hold an explicit zero *)
      let nonzero (id, r) = (id, List.filter (fun (_, v) -> v <> 0.0) r) in
      let numeric a b =
        List.length a = List.length b
        && List.for_all2
             (fun (id, r) (id', r') ->
               String.equal id id' && Aggregates.Spec.result_equal r r')
             (List.sort compare (List.map nonzero a))
             (List.sort compare (List.map nonzero b))
      in
      let ok_rerun =
        if bitwise then Aggregates.Spec.keyed_bits_equal results again
        else numeric results again
      in
      let ok_ref = numeric results reference in
      Printf.printf "check: rerun %s (%s), vs flat reference %s (numeric)\n"
        (if ok_rerun then "identical" else "DIVERGED")
        (if bitwise then "bitwise" else "numeric")
        (if ok_ref then "agrees" else "DIVERGED");
      if not (ok_rerun && ok_ref) then begin
        Printf.eprintf "borg agg: engine %s diverges from the reference\n"
          ename;
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "agg" ~doc:"Evaluate an aggregate batch with a selectable engine.")
    Term.(const run $ dataset_arg $ scale_arg $ seed_arg $ engine_arg $ batch_arg
          $ check_arg $ trace_arg $ metrics_out_arg)

(* ---- serve: epoch-cached aggregate serving over a delta stream ---- *)

let serve_cmd =
  let target_arg =
    let sconv =
      Arg.enum
        (("lattice", `Lattice)
        :: List.map (fun (n, s) -> (n, `Gen (n, s))) datasets)
    in
    Arg.(required & pos 0 (some sconv) None & info [] ~docv:"DATASET")
  in
  let clients_arg =
    Arg.(value & opt int 4
         & info [ "clients" ] ~docv:"K" ~doc:"Concurrent serving clients per burst.")
  in
  let repeats_arg =
    Arg.(value & opt int 4
         & info [ "repeats" ] ~docv:"R" ~doc:"Requests per batch per client burst.")
  in
  let rounds_arg =
    Arg.(value & opt int 2
         & info [ "rounds" ] ~docv:"N" ~doc:"Delta rounds applied between bursts.")
  in
  let limit_arg =
    Arg.(value & opt int 400
         & info [ "limit" ] ~docv:"N"
             ~doc:"Total updates: half as the initial load, the rest split over the rounds.")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"After every burst, fail unless each served result is \
                   bit-identical to a fresh LMFAO recompute over the current \
                   contents (the stream's floats lie on the dyadic lattice, so \
                   every sum is exact).")
  in
  let run target scale seed strategy clients repeats rounds limit check trace
      metrics_out =
    with_obs trace metrics_out @@ fun () ->
    let name, schema_db, features, mi, stream =
      match target with
      | `Lattice ->
          ("lattice", Sg.star_database (), Sg.star_features, [ "a"; "b" ],
           Sg.star_stream ~seed limit)
      | `Gen (n, spec) ->
          (* the lattice copy keeps every sum exact, so --check is bitwise *)
          let db = Sg.lattice_database (spec.generate ~scale ~seed ()) in
          ( n, db, spec.ivm_features, spec.mi_attrs,
            List.filteri (fun i _ -> i < limit) (Sg.inserts_of_database db) )
    in
    let srv = Serve.create strategy schema_db ~features in
    let batches =
      (* one refreshable batch (pure covariance coordinates) and one that
         must invalidate (group-bys) *)
      [
        Aggregates.Batch.covariance_numeric features;
        Aggregates.Batch.mutual_information mi;
      ]
    in
    let updates = Array.of_list stream in
    let n = Array.length updates in
    let initial = n / 2 in
    let seg lo len = Array.to_list (Array.sub updates lo len) in
    Serve.apply_deltas srv (seg 0 initial);
    let served = ref 0 in
    let burst () =
      List.iter
        (fun b ->
          (* one warm-up request (miss or refreshed hit), then a concurrent
             burst that must hit the cache *)
          ignore (Serve.serve srv b);
          let requests = List.init (clients * repeats) (fun _ -> b) in
          ignore (Serve.serve_many ~clients srv requests);
          served := !served + 1 + List.length requests;
          if check then begin
            let first, second = Scenario.serve_audit srv b in
            served := !served + 2;
            if not (first && second) then begin
              Printf.eprintf
                "borg serve: served %s DIVERGES from recompute at epoch %d\n"
                b.Aggregates.Batch.name (Serve.epoch srv);
              exit 1
            end
          end)
        batches
    in
    let t0 = Unix.gettimeofday () in
    burst ();
    let remaining = n - initial in
    for r = 0 to rounds - 1 do
      let lo = initial + r * remaining / rounds in
      let hi = initial + (r + 1) * remaining / rounds in
      Serve.apply_deltas srv (seg lo (hi - lo));
      burst ()
    done;
    let seconds = Unix.gettimeofday () -. t0 in
    let s = Serve.stats srv in
    Printf.printf
      "%s over %s (%s): %d requests in %s, epoch %d, cache %d entries\n"
      "serve" name
      (Fivm.Maintainer.strategy_name strategy)
      !served (Util.Timing.to_string seconds) (Serve.epoch srv)
      (Serve.cache_size srv);
    Printf.printf "hits %d  misses %d  refreshes %d  invalidations %d\n" s.Serve.hits
      s.Serve.misses s.Serve.refreshes s.Serve.invalidations;
    if check then Printf.printf "check: served results bit-identical to recompute\n"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve aggregate batches concurrently from the epoch-invalidated cache \
          while F-IVM applies delta rounds.")
    Term.(const run $ target_arg $ scale_arg $ seed_arg $ method_arg $ clients_arg
          $ repeats_arg $ rounds_arg $ limit_arg $ check_arg $ trace_arg
          $ metrics_out_arg)

(* ---- learn: epoch-fresh model serving over a delta stream ---- *)

let learn_cmd =
  (* Online model maintenance over the exact-arithmetic lattice workload:
     register Ml.Models entries against a server, stream delta batches
     through it, and serve epoch-tagged predictions between batches. With
     --check, every strategy runs and after every batch each served model
     goes through Scenario.model_audit: it must be at the current epoch and
     match a COLD retrain over from-scratch statistics — bit-identical
     encodings for direct solves, prediction agreement within
     Models.refresh_audit tolerance for iterative optimisers. *)
  let models_arg =
    let known = String.concat ", " (List.map Ml.Model_intf.name Ml.Models.all) in
    Arg.(value
         & opt (list string) [ "linreg-closed"; "linreg-cg"; "linreg-gd"; "polyreg" ]
         & info [ "models" ] ~docv:"M,.."
             ~doc:(Printf.sprintf "Registry models to serve (known: %s)." known))
  in
  let rounds_arg =
    Arg.(value & opt int 100
         & info [ "rounds" ] ~docv:"N" ~doc:"Delta batches applied per strategy.")
  in
  let batch_arg =
    Arg.(value & opt int 4
         & info [ "batch-size" ] ~docv:"B" ~doc:"Updates per delta batch.")
  in
  let initial_arg =
    Arg.(value & opt int 96
         & info [ "initial" ] ~docv:"N" ~doc:"Updates loaded before registration.")
  in
  let staleness_arg =
    Arg.(value & opt int 0
         & info [ "staleness" ] ~docv:"K"
             ~doc:"Epochs a served model may lag the data before apply_deltas \
                   must refresh it (0: refresh every batch).")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Run ALL three maintenance strategies and, after every delta \
                   batch, fail unless each served (warm-refreshed) model is at \
                   the current epoch and matches a cold retrain over \
                   from-scratch statistics: bit-identical encodings for direct \
                   solves, served predictions within the audit tolerance for \
                   iterative optimisers.")
  in
  let run models strategy rounds batch initial staleness check seed trace metrics_out =
    with_obs trace metrics_out @@ fun () ->
    let specs =
      List.map
        (fun n ->
          match Ml.Models.find n with
          | Some s -> s
          | None ->
              Printf.eprintf "borg learn: unknown model %s (known: %s)\n" n
                (String.concat ", " (List.map Ml.Model_intf.name Ml.Models.all));
              exit 1)
        models
    in
    let response = "m" in
    (* probe points for served predictions (lattice-range attribute values) *)
    let probes =
      List.concat_map
        (fun u -> List.map (fun v -> (u, v)) [ 0.25; 1.0; 2.5 ])
        [ 0.5; 1.25; 3.0 ]
    in
    let get_of (u, v) attr =
      match attr with
      | "intercept" -> Value.Float 1.0
      | "u" -> Value.Float u
      | "v" -> Value.Float v
      | a -> invalid_arg (Printf.sprintf "borg learn: probe has no attribute %s" a)
    in
    let strategies = if check then List.map snd strategies else [ strategy ] in
    List.iter
      (fun strategy ->
        let srv = Serve.create strategy (Sg.star_database ()) ~features:Sg.star_features in
        let stream = Array.of_list (Sg.star_stream ~seed (initial + (rounds * batch))) in
        let seg lo len = Array.to_list (Array.sub stream lo len) in
        Serve.apply_deltas srv (seg 0 initial);
        let names =
          List.map
            (fun spec ->
              Serve.Model.register srv ~max_staleness:staleness spec ~response)
            specs
        in
        let audits = ref 0 in
        let audit () =
          List.iter
            (fun name ->
              match Scenario.model_audit ~probes:(List.map get_of probes) srv name with
              | Ok () -> incr audits
              | Error detail ->
                  Printf.eprintf
                    "borg learn: %s served model DIVERGES from cold retrain at \
                     epoch %d (%s): %s\n"
                    name (Serve.epoch srv)
                    (Fivm.Maintainer.strategy_name strategy)
                    detail;
                  exit 1)
            names
        in
        let t0 = Unix.gettimeofday () in
        for r = 0 to rounds - 1 do
          Serve.apply_deltas srv (seg (initial + (r * batch)) batch);
          List.iter
            (fun name ->
              List.iter
                (fun p -> ignore (Serve.Model.predict srv name (get_of p)))
                probes)
            names;
          if check then audit ()
        done;
        let seconds = Unix.gettimeofday () -. t0 in
        let s = Serve.stats srv in
        Printf.printf
          "learn over lattice (%s): %d models, %d delta batches in %s, epoch %d\n"
          (Fivm.Maintainer.strategy_name strategy)
          (List.length names) rounds
          (Util.Timing.to_string seconds)
          (Serve.epoch srv);
        Printf.printf "model refreshes %d  model predictions %d\n"
          s.Serve.model_refreshes s.Serve.model_predictions;
        List.iter
          (fun name ->
            Printf.printf "  %-14s epoch %d\n" name (Serve.Model.epoch_of srv name))
          names;
        if check then
          Printf.printf
            "check: %d model audits against cold retrains passed\n" !audits)
      strategies
  in
  Cmd.v
    (Cmd.info "learn"
       ~doc:
         "Serve epoch-fresh models over a delta stream: register, warm-refresh \
          on every batch, predict with epoch tags; --check audits every \
          refresh against a cold retrain under all three strategies.")
    Term.(const run $ models_arg $ method_arg $ rounds_arg $ batch_arg
          $ initial_arg $ staleness_arg $ check_arg $ seed_arg $ trace_arg
          $ metrics_out_arg)

(* ---- check-metrics: validate an exported metrics snapshot ---- *)

(* ---- traffic: open-loop overload against the admission frontier ----

   The harness proves the tentpole claim: under offered load far beyond
   capacity, with transient faults injected into the recompute path, the
   server answers what it can fresh, degrades the rest to explicitly-tagged
   stale answers, and NEVER returns a wrong bit.

   The run is built in three phases on the virtual timeline, with the
   service costs probed on THIS machine first (a hit and a miss are timed,
   and rates/gates derived from them), so the same command produces the
   same qualitative picture — admission, shedding, timeouts, coalescing —
   on any hardware:

   1. WARM: one read per core batch at a leisurely rate — all admitted
      fresh; seeds the stale shadow cache.
   2. OVERLOAD: Poisson reads at [--overload]x the measured per-lane hit
      capacity, Zipf-skewed over batches and tenants, mixed with Poisson
      delta batches (lattice inserts AND deletes, each batch carrying a
      duplicated insert so coalescing provably eliminates updates).
   3. STARVED TENANT: a burst from a fresh tenant drains its token bucket
      on warmed batches, then asks for never-served "cold" batches
      (guaranteed Timeout: over quota, nothing to shed) and for warmed
      batches again (guaranteed Stale) — so all three outcome classes are
      exercised deterministically, independent of machine speed.

   --check turns on seeded transient faults, audits every answer against a
   from-scratch recompute for its claimed epoch (BIT-identical — the
   workload is the exact-arithmetic lattice), and enforces the accounting
   invariants (admitted + shed + timeout == offered, histogram count ==
   offered). *)

let traffic_cmd =
  let requests_arg =
    Arg.(value & opt int 2000
         & info [ "requests" ] ~docv:"N"
             ~doc:"Offered reads in the overload phase.")
  in
  let overload_arg =
    Arg.(value & opt float 8.0
         & info [ "overload" ] ~docv:"X"
             ~doc:"Offered rate as a multiple of measured per-lane capacity.")
  in
  let tenants_arg =
    Arg.(value & opt int 4
         & info [ "tenants" ] ~docv:"K" ~doc:"Tenant population (Zipf-active).")
  in
  let faults_arg =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Fault plan for the recompute path (default with --check: \
                   transient:0.15).")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Inject transient faults and audit every answer: fresh \
                   answers must be bit-identical to a recompute at the \
                   current epoch, stale answers bit-identical to the answer \
                   their tagged epoch actually served, and the admission \
                   accounting must balance. Exits non-zero on any violation.")
  in
  let run requests overload tenants strategy faults check seed trace metrics_out =
    with_obs trace metrics_out @@ fun () ->
    (* core batches (the served mix: refreshable covariance + invalidating
       categorical/grouped shapes) and cold batches reads never warm — the
       starved-tenant phase requests them to force Timeouts *)
    let core = Array.of_list Sg.star_batches in
    let cold =
      [|
        {
          Aggregates.Batch.name = "cold_b";
          aggregates =
            [
              Aggregates.Spec.make ~id:"sum_v_by_b" ~terms:[ ("v", 1) ]
                ~group_by:[ "b" ] ();
            ];
        };
        {
          Aggregates.Batch.name = "cold_ab";
          aggregates =
            [
              Aggregates.Spec.make ~id:"n_by_ab" ~terms:[]
                ~group_by:[ "a"; "b" ] ();
            ];
        };
        {
          Aggregates.Batch.name = "cold_u2";
          aggregates =
            [
              Aggregates.Spec.make ~id:"sum_u2_by_a" ~terms:[ ("u", 2) ]
                ~group_by:[ "a" ] ();
            ];
        };
      |]
    in
    let catalog = Array.append core cold in
    let lanes = Util.Pool.num_domains () in
    let srv = Serve.create strategy (Sg.star_database ()) ~features:Sg.star_features in
    Serve.apply_deltas srv (Sg.star_stream ~seed 300);
    (* ---- capacity probe: a miss and a hit on this machine ---- *)
    let time f =
      let t0 = Unix.gettimeofday () in
      f ();
      Unix.gettimeofday () -. t0
    in
    let t_miss =
      let total =
        Array.fold_left
          (fun acc b ->
            acc
            +. time (fun () ->
                   ignore
                     (Lmfao.Engine.eval ~on_cyclic:`Materialize
                        (Serve.snapshot srv) b)))
          0.0 core
      in
      Float.max 1e-6 (total /. float_of_int (Array.length core))
    in
    let t_hit =
      Array.iter (fun b -> ignore (Serve.serve srv b)) core;
      let reps = 50 in
      let total =
        time (fun () ->
            for _ = 1 to reps do
              Array.iter (fun b -> ignore (Serve.serve srv b)) core
            done)
      in
      Float.max 1e-8 (total /. float_of_int (reps * Array.length core))
    in
    (* ---- derived open-loop spec ---- *)
    let read_rate = overload *. float_of_int lanes /. t_hit in
    let duration = float_of_int requests /. read_rate in
    let spec =
      Traffic.Workload.spec ~seed ~duration ~read_rate
        ~delta_rate:(30.0 /. duration) ~delta_batch:8 ~tenants
        ~batch_skew:1.2 ~tenant_skew:1.2 ()
    in
    (* lattice updates with persistent insert/delete state; every batch
       carries one duplicated insert so coalescing provably merges *)
    let gen = Sg.star_gen () in
    let make_updates rng n =
      let fresh =
        Fivm.Delta.insert "D1"
          [| Value.Int (Util.Prng.int rng 4); Value.Float (Sg.draw_value Sg.Lattice rng) |]
      in
      fresh :: fresh :: Sg.star_updates gen rng (max 0 (n - 2))
    in
    let overload_events =
      Traffic.Workload.generate spec ~catalog:(Array.length core) ~make_updates
    in
    (* phase 1: warm reads, spaced far apart, before the overload window *)
    let warm_gap = 20.0 *. t_miss in
    let warm_span = warm_gap *. float_of_int (Array.length core + 1) in
    let warm_events =
      List.init (Array.length core) (fun i ->
          Traffic.Workload.Read
            { at = float_of_int (i + 1) *. warm_gap; tenant = 0; batch = i })
    in
    let shift dt = function
      | Traffic.Workload.Read r ->
          Traffic.Workload.Read { r with at = r.at +. dt }
      | Traffic.Workload.Delta d ->
          Traffic.Workload.Delta { d with at = d.at +. dt }
    in
    (* phase 3: the starved tenant — drain its bucket on the hot batch,
       then cold batches (Timeout: over quota, nothing to shed), then the
       hot batch again (Stale: over quota, shadow warm) *)
    let tenant_burst = 8.0 in
    let t_end = warm_span +. duration +. (2.0 *. t_miss) in
    let starved = tenants in
    let burst_events =
      List.init 8 (fun _ ->
          Traffic.Workload.Read { at = t_end; tenant = starved; batch = 0 })
      @ List.init (Array.length cold) (fun i ->
            Traffic.Workload.Read
              { at = t_end; tenant = starved; batch = Array.length core + i })
      @ List.init 4 (fun _ ->
            Traffic.Workload.Read { at = t_end; tenant = starved; batch = 0 })
    in
    let events =
      warm_events
      @ List.map (shift warm_span) overload_events
      @ burst_events
    in
    let fault_spec =
      match (faults, check) with
      | Some s, _ -> s
      | None, true -> "transient:0.15"
      | None, false -> ""
    in
    let faults =
      if fault_spec = "" then Resilience.Faults.none ()
      else Resilience.Faults.parse ~seed fault_spec
    in
    let cfg =
      Serve.Admission.config
        ~tenant_rate:(0.25 *. read_rate /. float_of_int tenants)
        ~tenant_burst
        ~gate_delay:
          (Float.max (20.0 *. t_hit)
             (0.05 *. float_of_int requests *. t_hit /. float_of_int lanes))
        ~deadline:(Float.max (50.0 *. t_miss) (float_of_int requests *. t_hit))
        ~max_pending:2048 ~max_retries:6 ~backoff_base:1e-5 ~backoff_cap:1e-3
        ~faults ~seed ()
    in
    let adm = Serve.Admission.create cfg srv in
    let reads =
      List.length
        (List.filter
           (function Traffic.Workload.Read _ -> true | _ -> false)
           events)
    in
    let report =
      Traffic.Driver.run ~lanes ~flush_interval:(duration /. 15.0)
        ~check adm ~catalog ~events
    in
    Printf.printf
      "traffic (%s, %d lanes, %.0fx overload): offered %d  admitted %d  shed \
       %d  timeout %d\n"
      (Fivm.Maintainer.strategy_name strategy)
      lanes overload report.Traffic.Driver.offered
      report.Traffic.Driver.admitted report.Traffic.Driver.shed
      report.Traffic.Driver.timeout;
    Printf.printf
      "flushes %d  coalesced %d  backpressure %d  retries %d  epoch %d\n"
      report.Traffic.Driver.flushes report.Traffic.Driver.coalesced
      report.Traffic.Driver.backpressure report.Traffic.Driver.retries
      (Serve.epoch srv);
    Printf.printf "latency p50 %s  p95 %s  p99 %s  max %s\n"
      (Util.Timing.to_string report.Traffic.Driver.p50)
      (Util.Timing.to_string report.Traffic.Driver.p95)
      (Util.Timing.to_string report.Traffic.Driver.p99)
      (Util.Timing.to_string report.Traffic.Driver.max_latency);
    if check then begin
      let failures = ref [] in
      let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
      let r = report in
      if r.Traffic.Driver.error_count > 0 then begin
        List.iter
          (fun e -> Printf.eprintf "borg traffic: audit: %s\n" e)
          r.Traffic.Driver.errors;
        fail "%d audit failures (%d answers checked)"
          r.Traffic.Driver.error_count r.Traffic.Driver.checked
      end;
      if
        r.Traffic.Driver.admitted + r.Traffic.Driver.shed
        + r.Traffic.Driver.timeout
        <> r.Traffic.Driver.offered
      then
        fail "accounting: admitted %d + shed %d + timeout %d <> offered %d"
          r.Traffic.Driver.admitted r.Traffic.Driver.shed
          r.Traffic.Driver.timeout r.Traffic.Driver.offered;
      if r.Traffic.Driver.offered <> reads then
        fail "offered %d <> generated reads %d" r.Traffic.Driver.offered reads;
      if r.Traffic.Driver.admitted = 0 then fail "no request was admitted";
      if r.Traffic.Driver.shed = 0 then fail "no request was shed";
      if r.Traffic.Driver.timeout = 0 then fail "no request timed out";
      if r.Traffic.Driver.coalesced = 0 then fail "coalescing eliminated nothing";
      if r.Traffic.Driver.checked = 0 then fail "audit checked no answers";
      if Obs.is_enabled () then begin
        (match Obs.histogram_snapshot_by_name "serve.latency" with
        | Some s ->
            if s.Obs.hs_count <> r.Traffic.Driver.offered then
              fail "histogram count %d <> offered %d" s.Obs.hs_count
                r.Traffic.Driver.offered
        | None -> fail "serve.latency histogram missing");
        let cv = Obs.counter_value_by_name in
        if
          cv "serve.offered"
          <> cv "serve.admitted" + cv "serve.shed" + cv "serve.timeout"
        then fail "serve.* counters do not balance"
      end;
      match !failures with
      | [] ->
          Printf.printf
            "check: %d answers audited bit-exact, all outcome classes \
             exercised, accounting balanced\n"
            r.Traffic.Driver.checked
      | fs ->
          List.iter (fun f -> Printf.eprintf "borg traffic: FAIL: %s\n" f)
            (List.rev fs);
          exit 1
    end
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:
         "Open-loop overload harness: Poisson/Zipf traffic against the \
          admission-controlled server, with probing-derived rates, injected \
          faults, and a bit-exactness audit of every degraded answer.")
    Term.(const run $ requests_arg $ overload_arg $ tenants_arg $ method_arg
          $ faults_arg $ check_arg $ seed_arg $ trace_arg $ metrics_out_arg)

(* ---- store: import a dataset into the paged columnar store ---- *)

let store_cmd =
  let dir_arg =
    Arg.(value & opt (some string) None
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Directory for the page files (default: a fresh temporary \
                   directory, removed afterwards).")
  in
  let page_rows_arg =
    Arg.(value & opt int Store.Paged.default_page_rows
         & info [ "page-rows" ] ~docv:"N" ~doc:"Rows per page.")
  in
  let cache_pages_arg =
    Arg.(value & opt int Store.Paged.default_cache_pages
         & info [ "cache-pages" ] ~docv:"N"
             ~doc:"Page-cache budget (decoded pages resident at once).")
  in
  let shards_arg =
    Arg.(value & opt int 0
         & info [ "shards" ] ~docv:"K"
             ~doc:"Also write per-shard page directories, routed like \
                   Fivm.Shard on the dataset's partition attribute.")
  in
  let verify_arg =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Re-open every relation, decode all pages against the \
                   directory, and check a paged scan reproduces the source \
                   relation bit for bit. Exits non-zero on any mismatch.")
  in
  let tuples_bit_equal a b =
    Array.length a = Array.length b
    && (let ok = ref true in
        Array.iteri
          (fun i x ->
            let y = b.(i) in
            let eq =
              match (x, y) with
              | Value.Float f, Value.Float g ->
                  Int64.bits_of_float f = Int64.bits_of_float g
              | _ -> Value.equal x y
            in
            if not eq then ok := false)
          a;
        !ok)
  in
  let run (dataset_name, spec) scale seed dir page_rows cache_pages shards
      verify trace metrics_out =
    with_obs trace metrics_out @@ fun () ->
    let db = spec.generate ~scale ~seed () in
    let made_tmp = dir = None in
    let dir =
      match dir with
      | Some d ->
          if not (Sys.file_exists d) then Unix.mkdir d 0o755;
          d
      | None ->
          let d = Filename.temp_file "borg-store" "" in
          Sys.remove d;
          Unix.mkdir d 0o700;
          d
    in
    Printf.printf "store: importing %s (scale %g, %d rows/page) into %s\n"
      dataset_name scale page_rows dir;
    let failures = ref 0 in
    List.iter
      (fun rel ->
        let rname = Relation.name rel in
        let rows =
          Obs.with_span "store.import" (fun () ->
              Store.Loader.import_relation ~dir ~page_rows rel)
        in
        let p = Store.Paged.openr ~cache_pages ~dir rname in
        let bytes = (Unix.stat (Store.Paged.pages_path dir rname)).st_size in
        Printf.printf "  %-12s %8d rows %6d pages %9d bytes\n" rname rows
          (Store.Paged.pages p) bytes;
        if verify then
          Obs.with_span "store.verify" (fun () ->
              (match Store.Paged.verify p with
              | _pages, _rows -> ()
              | exception Relational.Codec.Decode_error e ->
                  incr failures;
                  Printf.printf "  %-12s FAILED verify: %s\n" rname
                    (Relational.Codec.error_message e));
              (* paged scan == source, bit for bit, through the page cache
                 (small budgets force evictions mid-scan) *)
              let base = ref 0 and bad = ref 0 in
              Store.Paged.iter_chunks p (fun chunk ->
                  for i = 0 to Relation.cardinality chunk - 1 do
                    if
                      not
                        (tuples_bit_equal (Relation.get chunk i)
                           (Relation.get rel (!base + i)))
                    then incr bad
                  done;
                  base := !base + Relation.cardinality chunk);
              if !base <> Relation.cardinality rel || !bad > 0 then begin
                incr failures;
                Printf.printf
                  "  %-12s FAILED round-trip: %d rows (want %d), %d mismatched\n"
                  rname !base
                  (Relation.cardinality rel)
                  !bad
              end;
              (* re-touch the most recent page: it must still be resident,
                 so this records a cache hit (retention within budget) *)
              if Store.Paged.pages p > 0 then
                ignore (Store.Paged.chunk p (Store.Paged.pages p - 1)));
        Store.Paged.close p)
      (Database.relations db);
    if shards > 0 then begin
      let plan = Fivm.Shard.plan ~shards db in
      let attr = Fivm.Shard.plan_attr plan in
      Printf.printf "store: sharding on %s across %d shards\n" attr shards;
      List.iter
        (fun rel ->
          let rname = Relation.name rel in
          match Schema.position_opt (Relation.schema rel) attr with
          | None -> Printf.printf "  %-12s broadcast (no %s)\n" rname attr
          | Some _ ->
              let per_shard =
                Store.Loader.import_sharded ~dir ~page_rows ~shards
                  ~key:[ attr ] rel
              in
              Printf.printf "  %-12s [%s] rows/shard\n" rname
                (String.concat "; " (List.map string_of_int per_shard)))
        (Database.relations db)
    end;
    if made_tmp then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end;
    if !failures > 0 then begin
      Printf.printf "store: %d relation(s) FAILED verification\n" !failures;
      exit 1
    end
    else if verify then Printf.printf "store: all relations verified\n"
  in
  Cmd.v
    (Cmd.info "store"
       ~doc:"Import a dataset into the paged columnar store (and optionally \
             verify pages + scan round-trip).")
    Term.(const run $ dataset_arg $ scale_arg $ seed_arg $ dir_arg
          $ page_rows_arg $ cache_pages_arg $ shards_arg $ verify_arg
          $ trace_arg $ metrics_out_arg)

(* ---- scenarios: the hostile-stream (dataset x shape x layer) matrix ---- *)

let scenarios_cmd =
  let shape_arg =
    let sconv =
      Arg.enum (List.map (fun (n, s) -> (n, s)) Datagen.Stream_gen.shapes)
    in
    Arg.(value & opt_all sconv []
         & info [ "shape" ] ~docv:"SHAPE"
             ~doc:(Printf.sprintf
                     "Stream shape to run (repeatable); default: every shape. One of %s."
                     (String.concat ", " (List.map fst Datagen.Stream_gen.shapes))))
  in
  let layers_arg =
    let lconv =
      let parse s =
        let ls = List.map String.trim (String.split_on_char ',' s) in
        match List.find_opt (fun l -> not (List.mem l Scenario.layers)) ls with
        | Some bad ->
            Error (`Msg (Printf.sprintf "unknown layer %S (have: %s)" bad
                           (String.concat ", " Scenario.layers)))
        | None -> Ok ls
      in
      Arg.conv (parse, fun ppf ls -> Format.pp_print_string ppf (String.concat "," ls))
    in
    Arg.(value & opt lconv Scenario.layers
         & info [ "layers" ] ~docv:"L,.."
             ~doc:(Printf.sprintf "Comma-separated layer subset of: %s."
                     (String.concat ", " Scenario.layers)))
  in
  let shards_arg =
    let sconv =
      let parse s =
        try
          let ns = List.map int_of_string (String.split_on_char ',' (String.trim s)) in
          if List.for_all (fun n -> n >= 1) ns && ns <> [] then Ok ns
          else Error (`Msg "shard counts must be >= 1")
        with Failure _ -> Error (`Msg (Printf.sprintf "bad shard list %S" s))
      in
      Arg.conv
        (parse, fun ppf ns ->
          Format.pp_print_string ppf (String.concat "," (List.map string_of_int ns)))
    in
    Arg.(value & opt sconv [ 1; 4; 8 ]
         & info [ "shards" ] ~docv:"N,.." ~doc:"Shard counts for the shard layer.")
  in
  let check_arg =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Exit non-zero unless every differential in every cell passed.")
  in
  let scale_arg =
    Arg.(value & opt float 0.01
         & info [ "scale" ] ~docv:"S"
             ~doc:"Dataset scale factor (the matrix applies each stream through \
                   every layer, so cells are deliberately small).")
  in
  let run (name, spec) scale seed shapes layers shards check trace metrics_out =
    with_obs trace metrics_out @@ fun () ->
    let shapes =
      match shapes with [] -> List.map snd Datagen.Stream_gen.shapes | ss -> ss
    in
    let cells =
      List.map
        (fun shape ->
          (* a fresh generation per cell: [hostile] transforms the database
             in place of the stream's initial load *)
          let db = spec.generate ~scale ~seed () in
          let cell =
            Scenario.run_cell ~seed ~shards ~layers ~dataset:name ~shape
              ~features:spec.ivm_features db
          in
          Format.printf "%a@." Scenario.pp_cell cell;
          cell)
        shapes
    in
    let failed = List.filter (fun c -> not (Scenario.cell_ok c)) cells in
    Printf.printf "scenarios %s: %d cell(s), %d failed\n" name (List.length cells)
      (List.length failed);
    if check && failed <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "scenarios"
       ~doc:"Run hostile-stream differential cells (dataset x shape x layer): \
             deletes past zero, out-of-order batches, Zipf churn and \
             high-cardinality keys through maintenance, sharding, crash \
             recovery, serving, models and the streamed engines, each \
             checked bit-for-bit against an independent oracle.")
    Term.(const run $ dataset_arg $ scale_arg $ seed_arg $ shape_arg $ layers_arg
          $ shards_arg $ check_arg $ trace_arg $ metrics_out_arg)

let check_metrics_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let require_span_arg =
    Arg.(value & opt_all string []
         & info [ "require-span" ] ~docv:"NAME"
             ~doc:"Fail unless a span named $(docv) (or $(docv):...) was recorded. \
                   Repeatable.")
  in
  let require_counter_arg =
    Arg.(value & opt_all string []
         & info [ "require-counter" ] ~docv:"NAME"
             ~doc:"Fail unless counter $(docv) is present and non-zero. Repeatable.")
  in
  let require_histogram_arg =
    Arg.(value & opt_all string []
         & info [ "require-histogram" ] ~docv:"NAME"
             ~doc:"Fail unless histogram $(docv) is present with at least one \
                   observation. Repeatable.")
  in
  let require_eq_arg =
    Arg.(value & opt_all string []
         & info [ "require-eq" ] ~docv:"A=B+C"
             ~doc:"Fail unless the counter on the left equals the sum of the \
                   counters on the right (absent counters read as 0, matching \
                   the export, which omits zero counters). Repeatable.")
  in
  let require_le_arg =
    Arg.(value & opt_all string []
         & info [ "require-le" ] ~docv:"A<=B"
             ~doc:"Fail unless metric A is at most metric B. Each side is a \
                   gauge or counter name (gauges first) or a numeric literal; \
                   a named metric that is absent fails the check. Repeatable.")
  in
  let run file req_spans req_counters req_histograms req_eqs req_les =
    let contents = In_channel.with_open_text file In_channel.input_all in
    match Obs.Json.parse contents with
    | Error msg ->
        Printf.eprintf "check-metrics: %s: invalid JSON: %s\n" file msg;
        exit 1
    | Ok json ->
        let failures = ref [] in
        let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
        (* collect every span name in the tree *)
        let span_names = ref [] in
        let rec walk = function
          | Obs.Json.Obj _ as o ->
              (match Obs.Json.member "name" o with
              | Some (Obs.Json.Str n) -> span_names := n :: !span_names
              | _ -> ());
              (match Obs.Json.member "children" o with
              | Some (Obs.Json.Arr kids) -> List.iter walk kids
              | _ -> ())
          | _ -> ()
        in
        (match Obs.Json.member "spans" json with
        | Some (Obs.Json.Arr spans) -> List.iter walk spans
        | _ -> fail "no \"spans\" array");
        List.iter
          (fun req ->
            let matches n = n = req || String.starts_with ~prefix:(req ^ ":") n in
            if not (List.exists matches !span_names) then
              fail "missing span %S" req)
          req_spans;
        (match Obs.Json.member "counters" json with
        | Some (Obs.Json.Obj cs) ->
            List.iter
              (fun req ->
                match List.assoc_opt req cs with
                | Some (Obs.Json.Num v) when v > 0.0 -> ()
                | Some _ -> fail "counter %S is zero" req
                | None -> fail "missing counter %S" req)
              req_counters
        | _ -> if req_counters <> [] then fail "no \"counters\" object");
        (* counter lookup treating absence as 0 — the export omits counters
           that never moved, so an accounting identity over them must too *)
        let counter_value name =
          match Obs.Json.member "counters" json with
          | Some (Obs.Json.Obj cs) -> (
              match List.assoc_opt name cs with
              | Some (Obs.Json.Num v) -> v
              | _ -> 0.0)
          | _ -> 0.0
        in
        List.iter
          (fun eq ->
            match String.split_on_char '=' eq with
            | [ lhs; rhs ] ->
                let lhs = String.trim lhs in
                let terms =
                  List.map String.trim (String.split_on_char '+' rhs)
                in
                let sum =
                  List.fold_left (fun a t -> a +. counter_value t) 0.0 terms
                in
                let v = counter_value lhs in
                if v <> sum then
                  fail "identity %S: %g <> %g" eq v sum
            | _ -> fail "malformed --require-eq %S (want A=B+C+...)" eq)
          req_eqs;
        (* gauge-or-counter lookup for ordering assertions (e.g. peak cache
           residency bounded by the configured budget) *)
        let metric_value name =
          match float_of_string_opt name with
          | Some v -> Some v
          | None -> (
              let in_obj key =
                match Obs.Json.member key json with
                | Some (Obs.Json.Obj kvs) -> (
                    match List.assoc_opt name kvs with
                    | Some (Obs.Json.Num v) -> Some v
                    | _ -> None)
                | _ -> None
              in
              match in_obj "gauges" with
              | Some v -> Some v
              | None -> in_obj "counters")
        in
        List.iter
          (fun le ->
            match String.index_opt le '<' with
            | Some i
              when i + 1 < String.length le && le.[i + 1] = '=' ->
                let lhs = String.trim (String.sub le 0 i) in
                let rhs =
                  String.trim (String.sub le (i + 2) (String.length le - i - 2))
                in
                (match (metric_value lhs, metric_value rhs) with
                | Some a, Some b ->
                    if not (a <= b) then fail "bound %S: %g > %g" le a b
                | None, _ -> fail "bound %S: missing metric %S" le lhs
                | _, None -> fail "bound %S: missing metric %S" le rhs)
            | _ -> fail "malformed --require-le %S (want A<=B)" le)
          req_les;
        (match Obs.Json.member "histograms" json with
        | Some (Obs.Json.Obj hs) ->
            List.iter
              (fun req ->
                match List.assoc_opt req hs with
                | Some h -> (
                    match Obs.Json.member "count" h with
                    | Some (Obs.Json.Num n) when n > 0.0 -> ()
                    | _ -> fail "histogram %S has no observations" req)
                | None -> fail "missing histogram %S" req)
              req_histograms
        | _ -> if req_histograms <> [] then fail "no \"histograms\" object");
        (match !failures with
        | [] ->
            Printf.printf "check-metrics: %s ok (%d spans, %d required counters)\n"
              file (List.length !span_names) (List.length req_counters)
        | fs ->
            List.iter (fun f -> Printf.eprintf "check-metrics: %s\n" f) (List.rev fs);
            exit 1)
  in
  Cmd.v
    (Cmd.info "check-metrics"
       ~doc:"Validate a --metrics-out JSON snapshot (used by the CI smoke test).")
    Term.(const run $ file_arg $ require_span_arg $ require_counter_arg
          $ require_histogram_arg $ require_eq_arg $ require_le_arg)

let () =
  let doc = "machine learning over relational data, the structure-aware way" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "borg" ~version:"1.0.0" ~doc)
          [
            generate_cmd;
            train_cmd;
            tree_cmd;
            batches_cmd;
            ivm_cmd;
            maintain_cmd;
            agg_cmd;
            serve_cmd;
            learn_cmd;
            traffic_cmd;
            store_cmd;
            scenarios_cmd;
            check_metrics_cmd;
          ]))
