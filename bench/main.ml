(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 3 for the experiment index).

     dune exec bench/main.exe             -- run everything
     dune exec bench/main.exe -- fig3 fig5 ...   -- run selected entries
     BORG_SCALE=0.5 dune exec bench/main.exe     -- scale the datasets

   Absolute numbers depend on this machine and the synthetic data scale;
   the reproduced quantity is the SHAPE: who wins, by what factor, and how
   factors grow (the paper's numbers are quoted alongside). Micro-kernels
   are additionally registered as Bechamel tests (entry "micro"). *)

let scale =
  match Sys.getenv_opt "BORG_SCALE" with
  | Some s -> (try float_of_string s with _ -> 1.0)
  | None -> 1.0

(* BORG_OBS=1 switches the observability layer on for the whole run; each
   entry then prints its counter snapshot (timings stay span-free unless an
   entry opts in, so the measured numbers are not perturbed by reporting). *)
let obs_on =
  match Sys.getenv_opt "BORG_OBS" with
  | Some ("0" | "false" | "") | None -> false
  | Some _ -> true

let seed = 42

(* --json FILE: machine-readable per-entry timings (plus the per-entry
   counter snapshot when BORG_OBS is on), for tracking the perf trajectory
   across PRs. Populated by [record] calls at the measurement points and
   written once after the run. *)
let json_out = ref None
let compare_with = ref None
let timings : Obs.Json.t list ref = ref []

let record ~entry ~engine seconds =
  timings :=
    Obs.Json.Obj
      [
        ("entry", Obs.Json.Str entry);
        ("engine", Obs.Json.Str engine);
        ("seconds", Obs.Json.Num seconds);
      ]
    :: !timings

let line = String.make 78 '-'

let header title paper =
  Printf.printf "\n%s\n%s\n" line title;
  if paper <> "" then Printf.printf "(paper: %s)\n" paper;
  Printf.printf "%s\n%!" line

let pct x = Printf.sprintf "%.1fx" x

let human_bytes b =
  if b > 1_000_000 then Printf.sprintf "%.1f MB" (float_of_int b /. 1e6)
  else if b > 1_000 then Printf.sprintf "%.1f KB" (float_of_int b /. 1e3)
  else Printf.sprintf "%d B" b

(* ---------------------------------------------------------------- fig3 *)

(* Figure 3: the retailer dataset characteristics and the end-to-end
   structure-agnostic vs structure-aware comparison. *)
let fig3 () =
  header "Figure 3: retailer end-to-end (PostgreSQL+TensorFlow vs LMFAO)"
    "2,160x total speedup; join 10x input size; aggregates 37KB vs 23GB";
  let db = Datagen.Retailer.generate ~scale:(0.3 *. scale) ~seed () in
  let features = Datagen.Retailer.features in
  (* left table: dataset characteristics *)
  Printf.printf "%-14s %12s %8s %12s\n" "Relation" "Cardinality" "Arity" "CSV size";
  List.iter
    (fun r ->
      Printf.printf "%-14s %12d %8d %12s\n" (Relational.Relation.name r)
        (Relational.Relation.cardinality r)
        (Relational.Schema.arity (Relational.Relation.schema r))
        (human_bytes (Relational.Relation.csv_size r)))
    (Relational.Database.relations db);
  let join = Relational.Database.materialise_join db in
  Printf.printf "%-14s %12d %8d %12s\n" "Join" (Relational.Relation.cardinality join)
    (Relational.Schema.arity (Relational.Relation.schema join))
    (human_bytes (Relational.Relation.csv_size join));
  let input_bytes = Relational.Database.total_csv_size db in
  Printf.printf "join/input size ratio: %.1fx (paper: ~10x)\n%!"
    (float_of_int (Relational.Relation.csv_size join) /. float_of_int input_bytes);
  (* right table: the two pipelines *)
  let report = Baseline.Agnostic.run db features in
  let aware = Ml.Model_intf.timed_fit (module Ml.Linreg.Model) db features in
  let aware_total = aware.stats_seconds +. aware.solve_seconds in
  let aware_rmse = Ml.Linreg.rmse_on aware.model join in
  (* sufficient statistics size: the aggregate payload *)
  let batch = Aggregates.Batch.covariance features in
  let table = Lazy.force (Lmfao.Engine.eval db batch).Lmfao.Engine.table in
  let stat_bytes =
    Hashtbl.fold (fun _ r acc -> acc + (List.length r * 16)) table 0
  in
  Printf.printf "\n%-24s %14s %14s\n" "" "agnostic" "LMFAO";
  Printf.printf "%-24s %14s %14s\n" "Join"
    (Util.Timing.to_string report.join_seconds) "--";
  Printf.printf "%-24s %14s %14s\n" "Export/import"
    (Util.Timing.to_string report.export_seconds) "--";
  Printf.printf "%-24s %14s %14s\n" "One-hot + shuffling"
    (Util.Timing.to_string report.shuffle_seconds) "--";
  Printf.printf "%-24s %14s %14s\n" "Query batch" "--"
    (Util.Timing.to_string aware.stats_seconds);
  Printf.printf "%-24s %14s %14s\n" "Grad descent"
    (Util.Timing.to_string report.learn_seconds)
    (Util.Timing.to_string aware.solve_seconds);
  Printf.printf "%-24s %14s %14s\n" "Total"
    (Util.Timing.to_string (Baseline.Agnostic.total_seconds report))
    (Util.Timing.to_string aware_total);
  Printf.printf "%-24s %14s %14s\n" "Payload moved"
    (human_bytes report.join_csv_bytes) (human_bytes stat_bytes);
  Printf.printf "%-24s %14.3f %14.3f\n" "RMSE (train)" report.rmse aware_rmse;
  Printf.printf "\nspeedup (total): %s   (paper: 2,160x on 84M rows)\n%!"
    (pct (Baseline.Agnostic.total_seconds report /. aware_total));
  record ~entry:"fig3" ~engine:"lmfao-batch" aware.stats_seconds;
  record ~entry:"fig3" ~engine:"lmfao-total" aware_total;
  record ~entry:"fig3" ~engine:"agnostic-total"
    (Baseline.Agnostic.total_seconds report)

(* ------------------------------------------------------------ fig4left *)

type dataset = {
  dname : string;
  db : Relational.Database.t;
  features : Aggregates.Feature.t;
  mi_attrs : string list;
  ivm_features : string list;
}

let datasets ~s () =
  [
    {
      dname = "Retailer";
      db = Datagen.Retailer.generate ~scale:(0.08 *. s) ~seed ();
      features = Datagen.Retailer.features;
      mi_attrs = Datagen.Retailer.mi_attrs;
      ivm_features = Datagen.Retailer.ivm_features;
    };
    {
      dname = "Favorita";
      db = Datagen.Favorita.generate ~scale:(0.15 *. s) ~seed ();
      features = Datagen.Favorita.features;
      mi_attrs = Datagen.Favorita.mi_attrs;
      ivm_features = Datagen.Favorita.ivm_features;
    };
    {
      dname = "Yelp";
      db = Datagen.Yelp.generate ~scale:(0.15 *. s) ~seed ();
      features = Datagen.Yelp.features;
      mi_attrs = Datagen.Yelp.mi_attrs;
      ivm_features = Datagen.Yelp.ivm_features;
    };
    {
      dname = "TPC-DS";
      db = Datagen.Tpcds.generate ~scale:(0.1 *. s) ~seed ();
      features = Datagen.Tpcds.features;
      mi_attrs = Datagen.Tpcds.mi_attrs;
      ivm_features = Datagen.Tpcds.ivm_features;
    };
  ]

(* Figure 4 left: LMFAO vs unshared per-aggregate engines on batches C
   (covariance) and R (regression-tree node). *)
let fig4left () =
  header "Figure 4 (left): LMFAO speedup over DBX- and MonetDB-style engines"
    "speedups track batch size, 10x-1000x across C and R batches";
  Printf.printf "%-10s %-6s %6s | %10s %10s %10s | %9s %9s\n" "dataset" "batch"
    "#aggs" "LMFAO" "DBX-like" "Monet-like" "vs DBX" "vs Monet";
  (* LMFAO answers the R batch through its threshold-bucket rewriting (one
     group-by triple per feature + suffix sums) — same answers, far fewer
     aggregates; the baselines answer the original filtered batch. *)
  List.iter
    (fun d ->
      (* the per-aggregate engines work over the materialised join; its
         construction is part of their cost (the paper's competitors evaluate
         the batch over the join of the base tables) *)
      let join, t_join =
        Util.Timing.time (fun () -> Relational.Database.materialise_join d.db)
      in
      let thresholds =
        List.map
          (fun x ->
            (x, Aggregates.Batch.thresholds_for d.db x d.features.thresholds_per_feature))
          d.features.continuous
      in
      List.iter
        (fun (bname, batch, lmfao_run) ->
          let n = Aggregates.Batch.size batch in
          let t_lmfao = Util.Timing.measure ~repeats:1 lmfao_run in
          let t_dbx =
            t_join
            +. Util.Timing.measure ~repeats:1 (fun () ->
                   ignore (Baseline.Unshared.dbx join batch))
          in
          let t_monet =
            t_join
            +. Util.Timing.measure ~repeats:1 (fun () ->
                   ignore (Baseline.Unshared.monet join batch))
          in
          Printf.printf "%-10s %-6s %6d | %10s %10s %10s | %9s %9s\n%!" d.dname bname
            n
            (Util.Timing.to_string t_lmfao)
            (Util.Timing.to_string t_dbx)
            (Util.Timing.to_string t_monet)
            (pct (t_dbx /. t_lmfao))
            (pct (t_monet /. t_lmfao));
          let tag engine = Printf.sprintf "%s-%s-%s" engine d.dname bname in
          record ~entry:"fig4left" ~engine:(tag "lmfao") t_lmfao;
          record ~entry:"fig4left" ~engine:(tag "dbx") t_dbx;
          record ~entry:"fig4left" ~engine:(tag "monet") t_monet)
        [
          (let batch = Aggregates.Batch.covariance d.features in
           ("C", batch, fun () -> ignore (Lmfao.Engine.eval d.db batch)));
          (let batch = Aggregates.Batch.decision_node ~db:d.db d.features in
           ( "R",
             batch,
             fun () ->
               ignore (Lmfao.Bucketed.decision_node_results d.db d.features ~thresholds)
           ));
        ])
    (datasets ~s:(4.0 *. scale) ())

(* ----------------------------------------------------------- fig4right *)

(* Figure 4 right: maintenance throughput under inserts into an initially
   empty retailer database. *)
let fig4right () =
  header "Figure 4 (right): IVM throughput, covariance matrix under inserts"
    "F-IVM >1M tuples/s, ~10x over higher-order, >>100x over first-order";
  let db = Datagen.Retailer.generate ~scale:(0.4 *. scale) ~seed () in
  let features = Datagen.Retailer.ivm_features in
  let stream = Array.of_list (Datagen.Stream_gen.inserts_of_database db) in
  let n = Array.length stream in
  Printf.printf "stream: %d inserts, %d numeric features (%d aggregates)\n" n
    (List.length features)
    ((List.length features + 1) * (List.length features + 2) / 2);
  (* the paper's x-axis: cumulative throughput at fractions of the stream *)
  let fractions = [ 0.1; 0.2; 0.4; 0.6; 0.8; 1.0 ] in
  Printf.printf "%-18s" "fraction:";
  List.iter (fun f -> Printf.printf " %9.1f" f) fractions;
  Printf.printf "   (tuples/s)\n";
  let budget = 8.0 (* seconds per method; the paper used a 1h timeout *) in
  List.iter
    (fun strategy ->
      let m = Fivm.Maintainer.create strategy db ~features in
      let t0 = Util.Timing.now () in
      let processed = ref 0 in
      let checkpoints = ref fractions in
      let series = ref [] in
      (try
         Array.iter
           (fun u ->
             Fivm.Maintainer.apply m u;
             incr processed;
             (match !checkpoints with
             | f :: rest when float_of_int !processed >= f *. float_of_int n ->
                 series :=
                   float_of_int !processed /. (Util.Timing.now () -. t0) :: !series;
                 checkpoints := rest
             | _ -> ());
             if !processed land 255 = 0 && Util.Timing.now () -. t0 > budget then
               raise Exit)
           stream
       with Exit -> ());
      Printf.printf "%-18s" (Fivm.Maintainer.strategy_name strategy);
      List.iter (fun tps -> Printf.printf " %9.0f" tps) (List.rev !series);
      if !processed < n then
        Printf.printf "   (timed out at %d/%d after %.0fs)" !processed n budget;
      Printf.printf "\n%!")
    [ Fivm.Maintainer.F_ivm; Fivm.Maintainer.Higher_order; Fivm.Maintainer.First_order ]

(* ----------------------------------------------------------------- fig5 *)

(* Figure 5: number of aggregates per batch. *)
let fig5 () =
  header "Figure 5: aggregate batch sizes"
    "covar 937/157/730/3299, node 3150/273/1392/4299, MI 56/106/172/254, k-means 44/19/38/92";
  let ds = datasets ~s:(Stdlib.min scale 0.3) () in
  Printf.printf "%-16s" "workload";
  List.iter (fun d -> Printf.printf " %10s" d.dname) ds;
  Printf.printf "\n";
  let row name count =
    Printf.printf "%-16s" name;
    List.iter (fun d -> Printf.printf " %10d" (count d)) ds;
    Printf.printf "\n%!"
  in
  row "Covar. matrix" (fun d ->
      Aggregates.Batch.size (Aggregates.Batch.covariance d.features));
  row "Decision node" (fun d ->
      Aggregates.Batch.size (Aggregates.Batch.decision_node d.features));
  row "Mutual inf." (fun d ->
      Aggregates.Batch.size (Aggregates.Batch.mutual_information d.mi_attrs));
  row "k-means" (fun d -> Aggregates.Batch.size (Aggregates.Batch.kmeans d.features))

(* ----------------------------------------------------------------- fig6 *)

(* Figure 6: the code-optimisation ladder. *)
let fig6 () =
  header "Figure 6: LMFAO code optimisations vs AC/DC-style baseline"
    "cumulative speedups up to ~128x from specialisation + sharing + parallelism";
  Printf.printf "%-10s | %-38s %12s %9s\n" "dataset" "stage" "time" "speedup";
  List.iter
    (fun d ->
      let features = d.ivm_features in
      let baseline = ref None in
      List.iter
        (fun (stage_name, stage) ->
          let t =
            Util.Timing.measure ~repeats:1 (fun () -> stage d.db ~features)
          in
          let base =
            match !baseline with
            | None ->
                baseline := Some t;
                t
            | Some b -> b
          in
          Printf.printf "%-10s | %-38s %12s %9s\n%!" d.dname stage_name
            (Util.Timing.to_string t) (pct (base /. t));
          record ~entry:"fig6"
            ~engine:(Printf.sprintf "%s-%s" d.dname stage_name)
            t)
        Baseline.Acdc.stages;
      Printf.printf "\n%!")
    (datasets ~s:(4.0 *. scale) ())

(* ---------------------------------------------------------------- fsize *)

(* Section 1.2 footnote: factorised vs flat join size. *)
let fsize () =
  header "Footnote 1: factorised vs flat representation size (retailer)"
    "factorised join 26x smaller / flat join 10x larger than the input";
  let db = Datagen.Retailer.generate ~scale:(0.05 *. scale) ~seed () in
  let rels = Relational.Database.relations db in
  let order = Factorized.Var_order.of_relations rels in
  let frep = Factorized.Fjoin.factorize rels order in
  let join = Relational.Database.materialise_join db in
  let input = Relational.Database.total_value_count db in
  let flat = Relational.Relation.value_count join in
  let fact = Factorized.Frep.value_count frep in
  Printf.printf "input values:        %10d\n" input;
  Printf.printf "flat join values:    %10d  (%.1fx input; paper ~10x)\n" flat
    (float_of_int flat /. float_of_int input);
  Printf.printf "factorised values:   %10d  (%.1fx smaller than input; paper ~26x)\n"
    fact
    (float_of_int input /. float_of_int fact);
  Printf.printf "flat/factorised:     %10.1fx\n%!"
    (float_of_int flat /. float_of_int fact)

(* ---------------------------------------------------------------- reuse *)

(* Section 1.5: model selection reusing one covariance matrix. *)
let reuse () =
  header "Section 1.5: model reuse (many models from one covariance matrix)"
    "retrain per feature subset in ~50ms vs a full learner scan per model";
  let db = Datagen.Retailer.generate ~scale:(0.1 *. scale) ~seed () in
  let features = Datagen.Retailer.features in
  let batch = Aggregates.Batch.covariance features in
  let table, t_batch =
    Util.Timing.time (fun () ->
        Lazy.force (Lmfao.Engine.eval db batch).Lmfao.Engine.table)
  in
  let moment = Ml.Moment.of_batch features (Hashtbl.find table) in
  let (best, trail), t_select =
    Util.Timing.time (fun () ->
        Ml.Model_selection.forward_selection ~max_features:10 moment)
  in
  (* forward selection evaluates |pool| candidate models per greedy round *)
  let models_tried =
    (List.length trail - 1) * (Ml.Moment.width moment - 2)
    |> Stdlib.max (List.length trail)
  in
  (* agnostic comparison: ONE end-to-end retrain *)
  let t_agnostic =
    Baseline.Agnostic.total_seconds (Baseline.Agnostic.run db features)
  in
  Printf.printf "covariance batch (once):        %s\n" (Util.Timing.to_string t_batch);
  Printf.printf "models evaluated from moments:  %d in %s (%s each)\n" models_tried
    (Util.Timing.to_string t_select)
    (Util.Timing.to_string (t_select /. float_of_int (Stdlib.max 1 models_tried)));
  Printf.printf "best subset: %s (mse %.3f)\n" (String.concat ", " best.columns)
    best.mse;
  Printf.printf "agnostic pipeline per model:    %s  (%.0fx more per candidate)\n%!"
    (Util.Timing.to_string t_agnostic)
    (t_agnostic /. (t_select /. float_of_int (Stdlib.max 1 models_tried)))

(* ----------------------------------------------------------------- ifaq *)

(* Figure 11: the IFAQ pipeline, measured by interpreter operation counts. *)
let ifaq () =
  header "Figure 11: IFAQ transformation pipeline (operation counts)"
    "each stage preserves semantics while reducing work";
  let relations = Ifaq.Gd_example.relations ~n_s:300 ~n_keys:12 ~seed () in
  Printf.printf "%-55s %12s %12s %10s\n" "stage" "arith" "dict ops" "loops";
  List.iter
    (fun (name, program) ->
      let _, c = Ifaq.Interp.run ~relations program in
      Printf.printf "%-55s %12d %12d %10d\n%!" name c.Ifaq.Interp.arith
        c.Ifaq.Interp.dict_ops c.Ifaq.Interp.iterations)
    (Ifaq.Gd_example.all_stages ());
  (* Section 5.3 data layout: the same dictionary workload on the three
     physical layouts ("each of them show advantages for different
     workloads") *)
  let rng = Util.Prng.create seed in
  Printf.printf "\ndictionary layouts (1M contributions over 100K keys, 200K probes):\n";
  Printf.printf "%-16s %12s %12s\n" "layout" "build" "probe+scan";
  let entries =
    Array.init 1_000_000 (fun _ ->
        (Util.Prng.int rng 100_000, Util.Prng.float rng 1.0))
  in
  let probes = Array.init 200_000 (fun _ -> Util.Prng.int rng 120_000) in
  List.iter
    (fun (module D : Ifaq.Dict_layout.DICT) ->
      let _, build, probe = Ifaq.Dict_layout.workload (module D) ~entries ~probes in
      Printf.printf "%-16s %12s %12s\n%!"
        (Ifaq.Dict_layout.layout_name D.layout)
        (Util.Timing.to_string build) (Util.Timing.to_string probe))
    Ifaq.Dict_layout.all

(* ----------------------------------------------------------------- ineq *)

(* Section 2.3: additive-inequality aggregates, new algorithm vs scan. *)
let ineq () =
  header "Section 2.3: additive-inequality aggregates (sort+sweep vs naive scan)"
    "the new algorithms need polynomially less time than per-tuple checking";
  let rng = Util.Prng.create seed in
  Printf.printf "%-10s %12s %12s %9s\n" "n" "naive" "sort+sweep" "speedup";
  List.iter
    (fun n ->
      let side () =
        Array.init n (fun _ ->
            (Util.Prng.float_range rng 0.0 100.0, Util.Prng.float_range rng 0.0 1.0))
      in
      let left = side () and right = side () in
      let t_naive =
        Util.Timing.measure ~repeats:1 (fun () ->
            Ml.Inequality.naive_sum_pairs left right ~threshold:100.0)
      in
      let t_fast =
        Util.Timing.measure ~repeats:1 (fun () ->
            Ml.Inequality.fast_sum_pairs left right ~threshold:100.0)
      in
      Printf.printf "%-10d %12s %12s %9s\n%!" n
        (Util.Timing.to_string t_naive)
        (Util.Timing.to_string t_fast)
        (pct (t_naive /. t_fast)))
    [ 500; 2000; 8000 ]

(* ---------------------------------------------------------------- micro *)

(* Bechamel micro-benchmarks: one kernel per table/figure. *)
let micro () =
  header "Bechamel micro-kernels (one per figure)" "";
  let open Bechamel in
  let db = Datagen.Retailer.generate ~scale:0.01 ~seed () in
  let features = Datagen.Retailer.ivm_features in
  let rels = Relational.Database.relations db in
  let order = Factorized.Var_order.of_relations rels in
  let cov_batch = Aggregates.Batch.covariance Datagen.Retailer.features in
  let task = Fivm.Cov_task.make db ~features in
  let dim = List.length features in
  let stream = Array.of_list (Datagen.Stream_gen.inserts_of_database db) in
  let tests =
    [
      Test.make ~name:"fig3: lmfao covariance batch (retailer)"
        (Staged.stage (fun () -> ignore (Lmfao.Engine.eval db cov_batch)));
      Test.make ~name:"fig4l: one unshared aggregate scan"
        (let join = Relational.Database.materialise_join db in
         let spec = List.hd cov_batch.Aggregates.Batch.aggregates in
         Staged.stage (fun () -> ignore (Aggregates.Spec.eval_flat join spec)));
      Test.make ~name:"fig4r: f-ivm 100-insert burst"
        (Staged.stage (fun () ->
             let m = Fivm.Maintainer.create Fivm.Maintainer.F_ivm db ~features in
             for i = 0 to Stdlib.min 99 (Array.length stream - 1) do
               Fivm.Maintainer.apply m stream.(i)
             done));
      Test.make ~name:"fig5: covariance batch synthesis"
        (Staged.stage (fun () ->
             ignore (Aggregates.Batch.covariance Datagen.Retailer.features)));
      Test.make ~name:"fig6: covariance ring product"
        (let a = Rings.Covariance.of_tuple (Array.init dim float_of_int) in
         let b =
           Rings.Covariance.of_tuple (Array.init dim (fun i -> float_of_int (i + 1)))
         in
         Staged.stage (fun () -> ignore (Rings.Covariance.mul a b)));
      Test.make ~name:"fsize: factorised count (retailer)"
        (Staged.stage (fun () -> ignore (Factorized.Fjoin.count rels order)));
      Test.make ~name:"fig11: ifaq specialised stage eval"
        (let relations = Ifaq.Gd_example.relations ~n_s:50 ~n_keys:6 ~seed () in
         let program = snd (List.nth (Ifaq.Gd_example.all_stages ()) 3) in
         Staged.stage (fun () -> ignore (Ifaq.Interp.run ~relations program)));
      Test.make ~name:"s1.5: model re-solve from moments"
        (let table = Lazy.force (Lmfao.Engine.eval db cov_batch).Lmfao.Engine.table in
         let moment =
           Ml.Moment.of_batch Datagen.Retailer.features (Hashtbl.find table)
         in
         Staged.stage (fun () ->
             ignore
               (Ml.Linreg.train ~method_:Ml.Linreg.Closed_form
                  Datagen.Retailer.features moment)));
      Test.make ~name:"fig10: cov-task tuple lift"
        (let rel = List.hd rels in
         let t = Relational.Relation.get rel 0 in
         let name = Relational.Relation.name rel in
         Staged.stage (fun () -> ignore (Fivm.Cov_task.lift_cov task name t)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name wall ->
          let estimate =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
              instance wall
          in
          match Analyze.OLS.estimates estimate with
          | Some [ t ] ->
              Printf.printf "%-55s %12s/run\n%!" name
                (Util.Timing.to_string (t *. 1e-9))
          | _ -> Printf.printf "%-55s (no estimate)\n%!" name)
        results)
    tests

(* --------------------------------------------------------------- ablate *)

(* Ablations of the design choices DESIGN.md calls out: LMFAO's sharing,
   multi-root decomposition and parallelism, and the factorised engine's
   subtree caching. *)
let ablate () =
  header "Ablations: LMFAO engine options and factorised-join caching" "";
  let db = Datagen.Retailer.generate ~scale:(0.2 *. scale) ~seed () in
  let batch = Aggregates.Batch.covariance Datagen.Retailer.features in
  Printf.printf "LMFAO covariance batch (%d aggregates, %d input tuples):\n"
    (Aggregates.Batch.size batch)
    (Relational.Database.total_cardinality db);
  let d = Lmfao.Engine.default_options in
  List.iter
    (fun (name, options) ->
      let r, t =
        Util.Timing.time (fun () -> Lmfao.Engine.eval ~options db batch)
      in
      let stats = r.Lmfao.Engine.stats in
      Printf.printf "  %-28s %10s  (%4d views, %6d partials, %6d shared away)\n%!"
        name (Util.Timing.to_string t) stats.Lmfao.Engine.views
        stats.Lmfao.Engine.partials stats.Lmfao.Engine.shared_away)
    [
      ("default", d);
      ("- sharing", { d with share = false });
      ("- multi-root", { d with multi_root = false });
      ("- sharing - multi-root", { d with share = false; multi_root = false });
      ("+ parallel", { d with parallel = true; chunk_threshold = 2048 });
    ];
  (* factorised join subtree caching: pays on many-to-many joins where a
     subtree (here: an item's price) is shared across branches (here:
     dishes), the paper's Figure 8 situation scaled up *)
  let rng = Util.Prng.create seed in
  let open Relational in
  let orders =
    Relation.create "Orders"
      (Schema.make [ ("customer", Value.TInt); ("dish", Value.TInt) ])
  in
  for _ = 1 to 20_000 do
    Relation.append orders
      [| Value.Int (Util.Prng.int rng 500); Value.Int (Util.Prng.int rng 200) |]
  done;
  let dish = Relation.create "Dish" (Schema.make [ ("dish", Value.TInt); ("item", Value.TInt) ]) in
  for d = 0 to 199 do
    for _ = 1 to 8 do
      Relation.append dish [| Value.Int d; Value.Int (Util.Prng.int rng 60) |]
    done
  done;
  let items = Relation.create "Items" (Schema.make [ ("item", Value.TInt); ("price", Value.TFloat) ]) in
  for i = 0 to 59 do
    Relation.append items [| Value.Int i; Value.Float (Util.Prng.float_range rng 1.0 9.0) |]
  done;
  let rels = [ orders; dish; items ] in
  let order = Factorized.Var_order.of_relations rels in
  let t_cached =
    Util.Timing.measure ~repeats:1 (fun () ->
        Factorized.Fjoin.sum_product ~cache:true rels order ~vars:[ "price" ])
  in
  let t_uncached =
    Util.Timing.measure ~repeats:1 (fun () ->
        Factorized.Fjoin.sum_product ~cache:false rels order ~vars:[ "price" ])
  in
  Printf.printf
    "\nfactorised SUM(price) over a many-to-many join (Fig. 8 shape, 20K orders):\n\
    \  cached %s vs uncached %s (%s)\n%!"
    (Util.Timing.to_string t_cached)
    (Util.Timing.to_string t_uncached)
    (pct (t_uncached /. t_cached))

(* ----------------------------------------------------------------- wcoj *)

(* Section 3.2: worst-case optimal joins and their incremental cousin.
   Triangle counting on a random graph: the WCOJ engine vs the classical
   binary-join plan (materialise R |><| S, then join T), whose intermediate
   result blows past the AGM bound; plus the update-time maintenance of the
   triangle count ([36, 37]). *)
let wcoj () =
  header "Section 3.2: worst-case optimal joins (triangle query)"
    "WCOJ runs within the AGM bound; binary plans materialise a quadratic intermediate";
  let open Relational in
  let rng = Util.Prng.create seed in
  Printf.printf "%-12s %10s | %12s %12s %9s | %14s\n" "edges" "triangles" "wcoj"
    "binary-join" "speedup" "intermediate";
  List.iter
    (fun m ->
      let domain = int_of_float (sqrt (float_of_int m) *. 2.0) in
      let mk name (a1, a2) =
        let r =
          Relation.create name (Schema.make [ (a1, Value.TInt); (a2, Value.TInt) ])
        in
        for _ = 1 to m do
          Relation.append r
            [| Value.Int (Util.Prng.int rng domain); Value.Int (Util.Prng.int rng domain) |]
        done;
        r
      in
      let r = mk "R" ("a", "b") and s = mk "S" ("b", "c") and t = mk "T" ("c", "a") in
      let count = ref 0 in
      let t_wcoj =
        Util.Timing.measure ~repeats:1 (fun () ->
            count := Factorized.Wcoj.count [ r; s; t ])
      in
      let intermediate = ref 0 in
      let t_binary =
        Util.Timing.measure ~repeats:1 (fun () ->
            let rs = Ops.natural_join r s in
            intermediate := Relation.cardinality rs;
            Relation.cardinality (Ops.natural_join rs t))
      in
      Printf.printf "%-12d %10d | %12s %12s %9s | %14d\n%!" m !count
        (Util.Timing.to_string t_wcoj)
        (Util.Timing.to_string t_binary)
        (pct (t_binary /. t_wcoj))
        !intermediate;
      record ~entry:"wcoj" ~engine:(Printf.sprintf "wcoj-%d" m) t_wcoj;
      record ~entry:"wcoj" ~engine:(Printf.sprintf "binary-join-%d" m) t_binary)
    [ 2_000; 8_000; 32_000 ];
  (* maintenance under updates *)
  let g = Fivm.Triangle.create () in
  let n_updates = 30_000 in
  let domain = 300 in
  let t_maintain =
    Util.Timing.measure ~repeats:1 (fun () ->
        for _ = 1 to n_updates do
          let which =
            [| Fivm.Triangle.R; Fivm.Triangle.S; Fivm.Triangle.T |]
              .(Util.Prng.int rng 3)
          in
          Fivm.Triangle.update g which
            ~x:(Value.Int (Util.Prng.int rng domain))
            ~y:(Value.Int (Util.Prng.int rng domain))
            1
        done)
  in
  Printf.printf
    "\ntriangle maintenance: %d edge inserts in %s (%.0f updates/s; final count %d,\n\
     recomputed %d)\n%!"
    n_updates
    (Util.Timing.to_string t_maintain)
    (float_of_int n_updates /. t_maintain)
    (Fivm.Triangle.count g) (Fivm.Triangle.recompute g)

(* ------------------------------------------------------------- recovery *)

(* Recovery time vs checkpoint cadence: how long until the maintainer
   answers again after a crash, from (a) a cold rebuild of the whole stream,
   (b) checkpoint + WAL-tail replay at several cadences. The trade-off is
   the classical one: frequent checkpoints cost steady-state throughput and
   buy short recovery (small WAL tail), and vice versa. *)
let recovery () =
  header "Recovery time: checkpoint + WAL-tail replay vs cold rebuild" "";
  let db = Datagen.Retailer.generate ~scale:(0.05 *. scale) ~seed () in
  let features = Datagen.Retailer.ivm_features in
  let stream = Array.of_list (Datagen.Stream_gen.inserts_of_database db) in
  let n = Array.length stream in
  let make () = Fivm.Maintainer.create Fivm.Maintainer.F_ivm db ~features in
  Printf.printf "stream: %d inserts (F-IVM, retailer)\n" n;
  (* cold rebuild reference: re-apply the whole stream *)
  let t_cold =
    Util.Timing.measure ~repeats:1 (fun () ->
        let m = make () in
        Array.iter (Fivm.Maintainer.apply m) stream)
  in
  Printf.printf "%-28s %12s %12s %14s\n" "configuration" "ingest" "recovery"
    "vs cold";
  Printf.printf "%-28s %12s %12s %14s\n" "cold rebuild (no WAL)" "--"
    (Util.Timing.to_string t_cold) "1.0x";
  record ~entry:"recovery" ~engine:"cold-rebuild" t_cold;
  List.iter
    (fun checkpoint_every ->
      let dir = Filename.temp_dir "borg-recovery" "" in
      let cleanup () =
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      in
      Fun.protect ~finally:cleanup @@ fun () ->
      let cfg = Resilience.Driver.config ~checkpoint_every dir in
      let d = Resilience.Driver.create cfg make in
      let t_ingest =
        Util.Timing.measure ~repeats:1 (fun () ->
            Array.iter (fun u -> ignore (Resilience.Driver.submit d u)) stream)
      in
      (* simulate the crash: abandon [d] and recover purely from disk *)
      let t_recover =
        Util.Timing.measure ~repeats:1 (fun () ->
            ignore (Resilience.Driver.create cfg make))
      in
      let label = Printf.sprintf "checkpoint every %d" checkpoint_every in
      Printf.printf "%-28s %12s %12s %14s\n%!" label
        (Util.Timing.to_string t_ingest)
        (Util.Timing.to_string t_recover)
        (pct (t_cold /. t_recover));
      record ~entry:"recovery"
        ~engine:(Printf.sprintf "ckpt-%d-ingest" checkpoint_every)
        t_ingest;
      record ~entry:"recovery"
        ~engine:(Printf.sprintf "ckpt-%d-recover" checkpoint_every)
        t_recover)
    [ 100; 1000; 10000 ]

(* -------------------------------------------------------------- engines *)

(* The engine facade: every Engine_intf implementation on the same batch,
   through the one entry point the CLI uses (borg agg --engine). *)
let engines () =
  header "Engine facade: one covariance batch through every Engine_intf engine" "";
  let db = Datagen.Retailer.generate ~scale:(0.1 *. scale) ~seed () in
  let batch = Aggregates.Batch.covariance Datagen.Retailer.features in
  Printf.printf "batch: %d aggregates, %d input tuples\n"
    (Aggregates.Batch.size batch)
    (Relational.Database.total_cardinality db);
  List.iter
    (fun e ->
      let results, t =
        Util.Timing.time (fun () -> Aggregates.Engine_intf.eval e db batch)
      in
      Printf.printf "  %-10s %10s  (%d aggregates; %s)\n%!"
        (Aggregates.Engine_intf.name e)
        (Util.Timing.to_string t) (List.length results)
        (Aggregates.Engine_intf.description e);
      record ~entry:"engines" ~engine:(Aggregates.Engine_intf.name e) t)
    [
      (module Lmfao.Engine : Aggregates.Engine_intf.S);
      (module Baseline.Agnostic);
      (module Baseline.Unshared.Dbx);
      (module Baseline.Unshared.Monet);
    ]

(* ---------------------------------------------------------------- shard *)

(* Sharded maintenance scaling: the retailer insert stream hash-partitioned
   into N shards (Fivm.Shard). Wall time reflects this machine's core
   count; "critical path" runs every shard alone (~domains:1) and takes the
   slowest shard's apply time — the delta-application makespan an idle
   N-core machine would see. Merge time is the canonical shard-order fold
   of the per-shard covariances. *)
let shard () =
  header "Sharded F-IVM maintenance: shard-count scaling (retailer stream)" "";
  let db = Datagen.Retailer.generate ~scale ~seed () in
  let features = Datagen.Retailer.ivm_features in
  let stream = Datagen.Stream_gen.inserts_of_database db in
  Printf.printf "stream: %d inserts (F-IVM); partition attribute: %s; %d domains\n"
    (List.length stream)
    (Fivm.Shard.plan_attr (Fivm.Shard.plan ~shards:1 db))
    (Util.Pool.num_domains ());
  Printf.printf "%-8s %12s %14s %10s %16s\n" "shards" "wall" "critical path"
    "merge" "speedup (crit)";
  let base = ref nan in
  List.iter
    (fun shards ->
      let sh_wall = Fivm.Shard.create Fivm.Maintainer.F_ivm db ~features ~shards in
      let t_wall =
        Util.Timing.measure ~repeats:1 (fun () ->
            Fivm.Shard.apply_batch sh_wall stream)
      in
      let sh_crit = Fivm.Shard.create Fivm.Maintainer.F_ivm db ~features ~shards in
      Fivm.Shard.apply_batch ~domains:1 sh_crit stream;
      let t_crit =
        Array.fold_left Stdlib.max 0.0 (Fivm.Shard.shard_seconds sh_crit)
      in
      let _, t_merge =
        Util.Timing.time (fun () -> ignore (Fivm.Shard.covariance sh_crit))
      in
      if shards = 1 then base := t_crit;
      Printf.printf "%-8d %12s %14s %10s %16s\n%!" shards
        (Util.Timing.to_string t_wall)
        (Util.Timing.to_string t_crit)
        (Util.Timing.to_string t_merge)
        (pct (!base /. t_crit));
      record ~entry:"shard" ~engine:(Printf.sprintf "n%d-wall" shards) t_wall;
      record ~entry:"shard" ~engine:(Printf.sprintf "n%d-critical" shards) t_crit;
      record ~entry:"shard" ~engine:(Printf.sprintf "n%d-merge" shards) t_merge)
    [ 1; 2; 4; 8 ]

(* ---------------------------------------------------------------- serve *)

(* Serving-layer cache economics: the numeric covariance batch over the
   retailer stream, answered (a) cold by Lmfao.Engine.eval over the current
   contents, (b) by the epoch-cached hit path, (c) re-served right after a
   delta round refreshed the entry in place. The headline number is the
   hit/cold ratio — the whole point of the cache is that repeated traffic
   stops paying for LMFAO's decomposition. *)
let serve_bench () =
  header "Serving: epoch-cached hits vs cold LMFAO recompute (retailer)" "";
  let db = Datagen.Retailer.generate ~scale ~seed () in
  let features = Datagen.Retailer.ivm_features in
  let stream = Array.of_list (Datagen.Stream_gen.inserts_of_database db) in
  let n = Array.length stream in
  let initial = n * 9 / 10 in
  let seg lo len = Array.to_list (Array.sub stream lo len) in
  let srv = Serve.create Fivm.Maintainer.F_ivm db ~features in
  let t_load =
    Util.Timing.measure ~repeats:1 (fun () ->
        Serve.apply_deltas srv (seg 0 initial))
  in
  let batch = Aggregates.Batch.covariance_numeric features in
  Printf.printf "stream: %d inserts loaded in %s; batch: %d aggregates\n" initial
    (Util.Timing.to_string t_load)
    (Aggregates.Batch.size batch);
  let dbnow = Serve.snapshot srv in
  let t_cold =
    Util.Timing.measure ~repeats:3 (fun () ->
        ignore (Lmfao.Engine.eval ~on_cyclic:`Materialize dbnow batch))
  in
  ignore (Serve.serve srv batch);
  let t_hit =
    Util.Timing.measure ~repeats:100 (fun () -> ignore (Serve.serve srv batch))
  in
  let t_refresh =
    Util.Timing.measure ~repeats:3 (fun () ->
        Serve.apply_deltas srv (seg initial 8))
  in
  let t_hit_after =
    Util.Timing.measure ~repeats:100 (fun () -> ignore (Serve.serve srv batch))
  in
  let s = Serve.stats srv in
  Printf.printf "%-34s %12s %14s\n" "path" "time" "vs cold";
  Printf.printf "%-34s %12s %14s\n" "cold Lmfao.Engine.eval"
    (Util.Timing.to_string t_cold) "1.0x";
  Printf.printf "%-34s %12s %14s\n" "cache hit"
    (Util.Timing.to_string t_hit)
    (pct (t_cold /. t_hit));
  Printf.printf "%-34s %12s %14s\n" "8-update delta round (refresh)"
    (Util.Timing.to_string t_refresh)
    (pct (t_cold /. t_refresh));
  Printf.printf "%-34s %12s %14s\n" "hit after refresh"
    (Util.Timing.to_string t_hit_after)
    (pct (t_cold /. t_hit_after));
  Printf.printf
    "stats: %d hits, %d misses, %d refreshes, %d invalidations (epoch %d)\n%!"
    s.Serve.hits s.Serve.misses s.Serve.refreshes s.Serve.invalidations
    (Serve.epoch srv);
  record ~entry:"serve" ~engine:"cold-eval" t_cold;
  record ~entry:"serve" ~engine:"cache-hit" t_hit;
  record ~entry:"serve" ~engine:"delta-refresh" t_refresh;
  record ~entry:"serve" ~engine:"hit-after-refresh" t_hit_after

(* ---------------------------------------------------------------- learn *)

(* Online model maintenance economics (Section 1.5): after a delta round,
   how expensive is keeping a served model fresh? Three rungs on the
   retailer stream: (a) the aggregate refresh itself (the 8-update delta
   round through the maintainer), (b) a warm model refresh — moment assembly
   from the maintained triple + warm-started CG, data-size-independent, (c)
   a cold retrain — recompute the covariance batch over the current contents
   with LMFAO, then solve from scratch. The claim: (b) rides along with (a)
   at negligible extra cost, while (c) pays a full data pass per refresh. *)
let learn_bench () =
  header "Online learning: warm model refresh vs cold retrain (retailer)"
    "refreshing a maintained model costs O(d^2), not a data pass";
  let db = Datagen.Retailer.generate ~scale ~seed () in
  let features = Datagen.Retailer.ivm_features in
  let response = "inventoryunits" in
  let stream = Array.of_list (Datagen.Stream_gen.inserts_of_database db) in
  let n = Array.length stream in
  let initial = n * 9 / 10 in
  let seg lo len = Array.to_list (Array.sub stream lo len) in
  let srv = Serve.create Fivm.Maintainer.F_ivm db ~features in
  Serve.apply_deltas srv (seg 0 initial);
  (* register with an infinite staleness budget so apply_deltas leaves the
     model alone and each rung can be timed in isolation *)
  let spec = Ml.Models.find_exn "linreg-cg" in
  let mname =
    Serve.Model.register srv ~max_staleness:max_int spec ~response
  in
  (* [measure]'s warmup would consume the delta segment and leave the model
     current (a no-op refresh), so time each stale->fresh cycle exactly once
     per round and take medians *)
  let median l =
    let a = Array.of_list (List.sort compare l) in
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  in
  let samples =
    List.init 5 (fun r ->
        let t_agg =
          Util.Timing.time_only (fun () ->
              Serve.apply_deltas srv (seg (initial + (8 * r)) 8))
        in
        let t_model =
          Util.Timing.time_only (fun () -> Serve.Model.refresh srv mname)
        in
        (t_agg, t_model))
  in
  let t_agg = median (List.map fst samples) in
  let t_model = median (List.map snd samples) in
  (* cold retrain: statistics recomputed over the current contents, solve
     from scratch — what serving would pay without the maintained triple *)
  let feature =
    Aggregates.Feature.make ~response
      ~continuous:(List.filter (fun x -> x <> response) features)
      ~categorical:[] ()
  in
  let dbnow = Serve.snapshot srv in
  let cold =
    Ml.Model_intf.timed_fit (module Ml.Linreg.Model) dbnow feature
  in
  let t_cold = cold.stats_seconds +. cold.solve_seconds in
  Printf.printf "stream: %d inserts loaded; %d features, response %s\n" initial
    (List.length features) response;
  Printf.printf "%-34s %12s %14s\n" "path" "time" "vs cold retrain";
  Printf.printf "%-34s %12s %14s\n" "aggregate refresh (8-update round)"
    (Util.Timing.to_string t_agg) (pct (t_cold /. t_agg));
  Printf.printf "%-34s %12s %14s\n" "warm model refresh (from triple)"
    (Util.Timing.to_string t_model)
    (pct (t_cold /. t_model));
  Printf.printf "%-34s %12s %14s\n" "cold retrain (stats + solve)"
    (Util.Timing.to_string t_cold) "1.0x";
  Printf.printf
    "model refresh / aggregate refresh: %.2fx (epoch %d, model epoch %d)\n%!"
    (t_model /. t_agg) (Serve.epoch srv)
    (Serve.Model.epoch_of srv mname);
  record ~entry:"learn" ~engine:"aggregate-refresh" t_agg;
  record ~entry:"learn" ~engine:"model-refresh-warm" t_model;
  record ~entry:"learn" ~engine:"cold-retrain-stats" cold.stats_seconds;
  record ~entry:"learn" ~engine:"cold-retrain-solve" cold.solve_seconds;
  record ~entry:"learn" ~engine:"cold-retrain-total" t_cold

(* -------------------------------------------------------------- traffic *)

(* Tail latency vs offered load through the admission-controlled frontier:
   open-loop Poisson/Zipf traffic (Traffic.Workload) against Serve.Admission
   on the exact-arithmetic lattice schema, swept over lanes x load
   multiplier. The shape to reproduce is the classical hockey stick: below
   capacity the deadline never binds and everything is admitted fresh; past
   capacity the queueing-delay gate trips and the p99 stays bounded because
   excess requests degrade to stale answers instead of queueing without
   limit. Lane count is a driver parameter, so one process sweeps 1/4/8
   lanes regardless of BORG_DOMAINS. *)
let traffic_bench () =
  header "Traffic: tail latency vs offered load under admission control"
    "overload degrades to explicit staleness; tails stay bounded";
  let module Sg = Datagen.Stream_gen in
  (* insert-only lattice updates *)
  let lattice_updates = Sg.star_updates (Sg.star_gen ~deletes:false ()) in
  let star_server () =
    Serve.create Fivm.Maintainer.F_ivm (Sg.star_database ()) ~features:Sg.star_features
  in
  let catalog = Array.of_list Sg.star_batches in
  (* per-request hit and miss costs on this machine, probed once on a warmed
     server: the offered rate scales with the hit cost (the capacity the
     cache is supposed to deliver), but the gate and deadline must absorb
     the occasional post-delta cold recompute, which is orders of magnitude
     dearer *)
  let t_hit, t_miss =
    let srv = star_server () in
    Serve.apply_deltas srv (Sg.star_stream ~deletes:false ~seed 300);
    let t_miss =
      Float.max 1e-6
        (Util.Timing.measure ~repeats:3 (fun () ->
             Array.iter
               (fun b ->
                 ignore
                   (Lmfao.Engine.eval ~on_cyclic:`Materialize
                      (Serve.snapshot srv) b))
               catalog)
        /. float_of_int (Array.length catalog))
    in
    Array.iter (fun b -> ignore (Serve.serve srv b)) catalog;
    let t_hit =
      Float.max 1e-8
        (Util.Timing.measure ~repeats:50 (fun () ->
             Array.iter (fun b -> ignore (Serve.serve srv b)) catalog)
        /. float_of_int (Array.length catalog))
    in
    (t_hit, t_miss)
  in
  (* every cell spans the same virtual window, long enough that the
     single-writer flush stalls (four delta batches in two flushes, each a
     few hundred us of measured apply time) are a small tax rather than the
     whole story; the request count then follows from the offered rate *)
  let duration = 0.01 *. Float.max 1.0 scale in
  Printf.printf
    "hit cost %s, miss cost %s; %.0fms virtual window per cell; open-loop \
     Poisson, Zipf 1.2\n"
    (Util.Timing.to_string t_hit)
    (Util.Timing.to_string t_miss)
    (duration *. 1e3);
  Printf.printf "%-6s %-6s | %8s %8s %8s %8s | %10s %10s %10s\n" "lanes"
    "load" "offered" "admit" "shed" "timeout" "p50" "p99" "max";
  let total = ref 0 in
  List.iter
    (fun lanes ->
      List.iter
        (fun mult ->
          let srv = star_server () in
          Serve.apply_deltas srv (Sg.star_stream ~deletes:false ~seed 300);
          let read_rate = mult *. float_of_int lanes /. t_hit in
          let spec =
            Traffic.Workload.spec ~seed ~duration ~read_rate
              ~delta_rate:(4.0 /. duration) ~delta_batch:8 ~tenants:4
              ~batch_skew:1.2 ~tenant_skew:1.2 ()
          in
          let events =
            Traffic.Workload.generate spec
              ~catalog:(Array.length catalog)
              ~make_updates:lattice_updates
          in
          (* generous quotas: the bench isolates the queueing-delay gate
             (the CLI exercises the per-tenant buckets); the gate absorbs a
             few cold recomputes before shedding *)
          let cfg =
            Serve.Admission.config ~tenant_rate:read_rate ~tenant_burst:256.0
              ~gate_delay:(Float.max (200.0 *. t_hit) (4.0 *. t_miss))
              ~deadline:(Float.max (1000.0 *. t_hit) (20.0 *. t_miss))
              ~seed ()
          in
          let adm = Serve.Admission.create cfg srv in
          let r =
            Traffic.Driver.run ~lanes ~flush_interval:(duration /. 2.0) adm
              ~catalog ~events
          in
          total := !total + r.Traffic.Driver.offered;
          Printf.printf "%-6d %-6s | %8d %8d %8d %8d | %10s %10s %10s\n%!"
            lanes
            (Printf.sprintf "%.1fx" mult)
            r.Traffic.Driver.offered r.Traffic.Driver.admitted
            r.Traffic.Driver.shed r.Traffic.Driver.timeout
            (Util.Timing.to_string r.Traffic.Driver.p50)
            (Util.Timing.to_string r.Traffic.Driver.p99)
            (Util.Timing.to_string r.Traffic.Driver.max_latency);
          let tag q = Printf.sprintf "l%d-x%.1f-%s" lanes mult q in
          record ~entry:"traffic" ~engine:(tag "p50") r.Traffic.Driver.p50;
          record ~entry:"traffic" ~engine:(tag "p99") r.Traffic.Driver.p99;
          record ~entry:"traffic"
            ~engine:(tag "admitted-frac")
            (float_of_int r.Traffic.Driver.admitted
            /. float_of_int (Stdlib.max 1 r.Traffic.Driver.offered)))
        [ 0.5; 2.0; 8.0 ])
    [ 1; 4; 8 ];
  Printf.printf "total simulated requests: %d\n%!" !total

(* ------------------------------------------------------------ outofcore *)

(* ROADMAP item 3: the fig3 covariance batch over the paged columnar store.
   Every relation is imported into `.pages` files and the engines scan them
   through a FIXED page-cache budget, so the resident working set stays
   flat while the dataset grows — the out-of-core property, gauge-verified:
   at every scale the bench asserts store.cache_pages_peak <= budget and
   that paged results are BIT-IDENTICAL to in-memory execution.

   Scales are ABSOLUTE ({0.1, 0.5, 1.0}, seed fixed), deliberately ignoring
   BORG_SCALE: the committed crossover table must mean the same thing on
   every machine. Scale 1.0 is the repo's full retailer (84K Inventory
   rows, 1/1000 of the paper's 84M — the shape, not the wall-clock). *)

let outofcore () =
  header "Out-of-core: fig3 covariance batch over the paged store"
    "LMFAO/F-IVM report at full scale; working set no longer fits";
  let features = Datagen.Retailer.features in
  let batch = Aggregates.Batch.covariance features in
  let page_rows = 1024 in
  let cache_pages = 8 in
  (* gauges/counters only move with the obs layer on; this entry opts in *)
  let obs_was = Obs.is_enabled () in
  Obs.set_enabled true;
  let peak_gauge = Obs.gauge "store.cache_pages_peak" in
  Printf.printf
    "page cache budget: %d pages x %d rows (held fixed across scales)\n\n"
    cache_pages page_rows;
  Printf.printf "%-6s %10s | %12s %12s %8s | %10s %9s %9s\n" "scale" "rows"
    "in-memory" "paged" "ratio" "pages" "peak" "bit-eq";
  List.iter
    (fun s ->
      let db = Datagen.Retailer.generate ~scale:s ~seed () in
      let rows = Relational.Database.total_cardinality db in
      let t_mem =
        Util.Timing.measure ~repeats:2 (fun () -> Lmfao.Engine.eval_batch db batch)
      in
      let r_mem = Lmfao.Engine.eval_batch db batch in
      (* import every relation, then rebuild the database as planner stubs
         plus page streams: same names, schemas and cardinalities, cells on
         disk *)
      let dir = Filename.temp_file "borg-outofcore" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o700;
      let paged =
        List.map
          (fun rel ->
            ignore (Store.Loader.import_relation ~dir ~page_rows rel);
            Store.Paged.openr ~cache_pages ~dir (Relational.Relation.name rel))
          (Relational.Database.relations db)
      in
      let total_pages =
        List.fold_left (fun acc p -> acc + Store.Paged.pages p) 0 paged
      in
      let sdb =
        Relational.Database.create_streamed
          (Relational.Database.name db ^ "_paged")
          (List.map
             (fun p -> (Store.Paged.stub p, Some (Store.Paged.stream p)))
             paged)
      in
      Obs.set_gauge peak_gauge 0.0;
      let t_paged =
        Util.Timing.measure ~repeats:2 (fun () -> Lmfao.Engine.eval_batch sdb batch)
      in
      let r_paged = Lmfao.Engine.eval_batch sdb batch in
      let peak = int_of_float (Obs.gauge_value peak_gauge) in
      if not (Aggregates.Spec.keyed_bits_equal r_mem r_paged) then
        failwith
          (Printf.sprintf
             "outofcore: paged results differ from in-memory at scale %g" s);
      if peak > cache_pages then
        failwith
          (Printf.sprintf
             "outofcore: cache peak %d exceeds budget %d at scale %g" peak
             cache_pages s);
      Printf.printf "%-6g %10d | %12s %12s %8s | %10d %9d %9s\n%!" s rows
        (Util.Timing.to_string t_mem)
        (Util.Timing.to_string t_paged)
        (pct (t_paged /. t_mem))
        total_pages peak "yes";
      let tag e = Printf.sprintf "%s@%g" e s in
      record ~entry:"outofcore" ~engine:(tag "in-memory") t_mem;
      record ~entry:"outofcore" ~engine:(tag "paged") t_paged;
      record ~entry:"outofcore" ~engine:(tag "cache-peak-pages") (float_of_int peak);
      record ~entry:"outofcore" ~engine:(tag "cache-budget-pages")
        (float_of_int cache_pages);
      List.iter Store.Paged.close paged;
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      (try Unix.rmdir dir with Unix.Unix_error _ -> ()))
    [ 0.1; 0.5; 1.0 ];
  Printf.printf
    "\npeak cache residency is flat while the dataset grows 10x: the paged\n\
     path runs the full-scale batch in bounded memory, trading decode time\n\
     (the in-memory vs paged ratio above is the crossover cost).\n%!";
  Obs.set_enabled obs_was

(* ------------------------------------------------------------- dispatch *)

(* ------------------------------------------------------------ scenarios *)

(* Hostile-stream maintenance throughput: every dataset x shape cell of the
   scenario grammar (single-tuple and batched inserts, churn past zero,
   out-of-order windows, Zipf-skewed victims, boxed high-cardinality keys)
   pushed through F-IVM maintenance. The throughput column is delta tuples
   per second through the maintained view tree; every cell ends with the
   same bit-identity differential the scenario harness enforces, so a
   number is only ever printed for a stream that was maintained CORRECTLY. *)
let scenarios_bench () =
  header "Hostile-stream maintenance throughput (dataset x shape, F-IVM)" "";
  let datasets =
    [
      ("retailer", Datagen.Retailer.generate, Datagen.Retailer.ivm_features);
      ("favorita", Datagen.Favorita.generate, Datagen.Favorita.ivm_features);
      ("yelp", Datagen.Yelp.generate, Datagen.Yelp.ivm_features);
      ("tpcds", Datagen.Tpcds.generate, Datagen.Tpcds.ivm_features);
    ]
  in
  Printf.printf "%-10s %-14s %9s %9s %12s %14s\n" "dataset" "shape" "updates"
    "deletes" "wall" "updates/s";
  List.iter
    (fun ( name,
           (generate : ?scale:float -> seed:int -> unit -> Relational.Database.t),
           features ) ->
      let db0 = generate ~scale:(0.05 *. scale) ~seed () in
      List.iter
        (fun (sname, shape) ->
          let db, batches = Datagen.Stream_gen.hostile ~seed shape db0 in
          let updates = List.fold_left (fun n b -> n + List.length b) 0 batches in
          let deletes =
            List.fold_left
              (fun n b ->
                n
                + List.length
                    (List.filter
                       (fun (u : Fivm.Delta.update) -> u.multiplicity < 0)
                       b))
              0 batches
          in
          let m = Fivm.Maintainer.create Fivm.Maintainer.F_ivm db ~features in
          let (), wall =
            Util.Timing.time (fun () ->
                List.iter (Fivm.Maintainer.apply_batch m) batches)
          in
          if
            not
              (Rings.Covariance.equal_bits
                 (Fivm.Maintainer.covariance m)
                 (Fivm.Maintainer.recompute m))
          then failwith (Printf.sprintf "scenarios: %s x %s diverged" name sname);
          Printf.printf "%-10s %-14s %9d %9d %12s %14.0f\n%!" name sname updates
            deletes
            (Util.Timing.to_string wall)
            (float_of_int updates /. wall);
          record ~entry:"scenarios" ~engine:(name ^ "/" ^ sname) wall)
        Datagen.Stream_gen.shapes)
    datasets

let entries =
  [
    ("fig3", fig3);
    ("fig4left", fig4left);
    ("fig4right", fig4right);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fsize", fsize);
    ("reuse", reuse);
    ("ifaq", ifaq);
    ("ineq", ineq);
    ("ablate", ablate);
    ("wcoj", wcoj);
    ("recovery", recovery);
    ("shard", shard);
    ("serve", serve_bench);
    ("learn", learn_bench);
    ("traffic", traffic_bench);
    ("engines", engines);
    ("outofcore", outofcore);
    ("scenarios", scenarios_bench);
    ("micro", micro);
  ]

let () =
  let rec parse_args acc = function
    | "--json" :: file :: rest ->
        json_out := Some file;
        parse_args acc rest
    | "--json" :: [] -> failwith "--json needs a file argument"
    | "--compare" :: file :: rest ->
        compare_with := Some file;
        parse_args acc rest
    | "--compare" :: [] -> failwith "--compare needs a file argument"
    | x :: rest -> parse_args (x :: acc) rest
    | [] -> List.rev acc
  in
  let requested =
    match parse_args [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst entries
    | rest -> rest
  in
  Printf.printf "relational-data-borg benchmark harness (scale %.2f%s)\n" scale
    (if obs_on then ", observability on" else "");
  Obs.set_enabled obs_on;
  List.iter
    (fun name ->
      match List.assoc_opt name entries with
      | Some f ->
          Obs.reset ();
          let (), wall = Util.Timing.time f in
          record ~entry:name ~engine:"wall" wall;
          if obs_on then begin
            match Obs.counter_snapshot () with
            | [] -> ()
            | snapshot ->
                Printf.printf "\n[%s] counters:\n" name;
                List.iter (fun (c, v) -> Printf.printf "  %-36s %12d\n" c v) snapshot;
                Printf.printf "%!";
                timings :=
                  Obs.Json.Obj
                    [
                      ("entry", Obs.Json.Str name);
                      ( "counters",
                        Obs.Json.Obj
                          (List.map
                             (fun (c, v) -> (c, Obs.Json.num_int v))
                             snapshot) );
                    ]
                  :: !timings
          end
      | None ->
          Printf.printf "unknown entry %s (available: %s)\n" name
            (String.concat ", " (List.map fst entries)))
    requested;
  (* --compare OLD.json: per-entry speedup of this run against a previous
     --json dump, matched on (entry, engine). *)
  (match !compare_with with
  | None -> ()
  | Some file ->
      let triples doc =
        match Obs.Json.member "timings" doc with
        | Some (Obs.Json.Arr l) ->
            List.filter_map
              (fun o ->
                match
                  ( Obs.Json.member "entry" o,
                    Obs.Json.member "engine" o,
                    Obs.Json.member "seconds" o )
                with
                | ( Some (Obs.Json.Str e),
                    Some (Obs.Json.Str g),
                    Some (Obs.Json.Num s) ) ->
                    Some ((e, g), s)
                | _ -> None)
              l
        | _ -> []
      in
      match Obs.Json.parse (In_channel.with_open_text file In_channel.input_all) with
      | Error msg -> Printf.printf "\n--compare %s: parse error: %s\n%!" file msg
      | exception Sys_error msg -> Printf.printf "\n--compare: %s\n%!" msg
      | Ok doc ->
          let old = triples doc in
          let now =
            triples (Obs.Json.Obj [ ("timings", Obs.Json.Arr (List.rev !timings)) ])
          in
          header (Printf.sprintf "Comparison against %s (old / new)" file) "";
          Printf.printf "%-12s %-22s %12s %12s %10s\n" "entry" "engine" "old"
            "new" "speedup";
          List.iter
            (fun ((entry, engine), secs) ->
              match List.assoc_opt (entry, engine) old with
              | None -> ()
              | Some old_secs ->
                  Printf.printf "%-12s %-22s %12s %12s %10s\n" entry engine
                    (Util.Timing.to_string old_secs)
                    (Util.Timing.to_string secs)
                    (pct (old_secs /. secs)))
            now;
          Printf.printf "%!");
  match !json_out with
  | None -> ()
  | Some file ->
      let doc =
        Obs.Json.Obj
          [
            ("scale", Obs.Json.Num scale);
            ("seed", Obs.Json.num_int seed);
            ("timings", Obs.Json.Arr (List.rev !timings));
          ]
      in
      let oc = open_out file in
      output_string oc (Obs.Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote %s\n%!" file
