(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 3 for the experiment index).

     dune exec bench/main.exe             -- run everything
     dune exec bench/main.exe -- fig3 fig5 ...   -- run selected entries
     BORG_SCALE=0.5 dune exec bench/main.exe     -- scale the datasets

   Absolute numbers depend on the machine and the synthetic data scale;
   the reproduced quantity is the SHAPE: who wins, by what factor, and how
   factors grow (the paper's numbers are quoted alongside). Performance
   claims are measured by perfbench/, not here. *)

(* A usage error (a bad BORG_SCALE or an unknown entry name) is reported
   before any entry runs, so a typo never passes for a finished run. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

let scale =
  match Sys.getenv_opt "BORG_SCALE" with
  | None -> 1.0
  | Some s -> (
      match float_of_string_opt s with
      | Some x when Float.is_finite x && x > 0.0 -> x
      | _ -> usage_error "BORG_SCALE=%S is not a finite positive number" s)

let seed = 42

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
    (pct (Baseline.Agnostic.total_seconds report /. aware_total))

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
            (pct (t_monet /. t_lmfao)))
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
   empty retailer database, for two load orders. Dimensions first is the
   paper's stream: every fact insert meets one stored partner per
   dimension. Dimensions after the facts makes each dimension insert meet
   every stored fact that joins it, so its delta fans out through the
   views (and first-order IVM re-joins it against the facts per
   aggregate). *)
let fig4right () =
  header "Figure 4 (right): IVM throughput, covariance matrix under inserts"
    "F-IVM >1M tuples/s, ~10x over higher-order, >>100x over first-order";
  let db = Datagen.Retailer.generate ~scale:(0.4 *. scale) ~seed () in
  let features = Datagen.Retailer.ivm_features in
  let dims_first = Datagen.Stream_gen.inserts_of_database db in
  let fact = Relational.Relation.name (Datagen.Stream_gen.fact_relation db) in
  let facts, dims =
    List.partition (fun (u : Fivm.Delta.update) -> u.relation = fact) dims_first
  in
  Printf.printf "stream: %d inserts, %d numeric features (%d aggregates)\n"
    (List.length dims_first) (List.length features)
    ((List.length features + 1) * (List.length features + 2) / 2);
  (* the paper's x-axis: cumulative throughput at fractions of the stream *)
  let fractions = [ 0.1; 0.2; 0.4; 0.6; 0.8; 1.0 ] in
  let budget = 8.0 (* seconds per method; the paper used a 1h timeout *) in
  let table title stream =
    let stream = Array.of_list stream in
    let n = Array.length stream in
    Printf.printf "\n%s\n%-18s" title "fraction:";
    List.iter (fun f -> Printf.printf " %9.1f" f) fractions;
    Printf.printf "   (tuples/s)\n";
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
  in
  table "dimensions first:" dims_first;
  table "dimensions after the facts:" (facts @ dims)

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
            (Util.Timing.to_string t) (pct (base /. t)))
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
        !intermediate)
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
  ]

let () =
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst entries
    | names -> names
  in
  (match List.filter (fun name -> not (List.mem_assoc name entries)) requested with
  | [] -> ()
  | unknown ->
      usage_error "unknown entr%s %s (available: %s)"
        (if List.length unknown = 1 then "y" else "ies")
        (String.concat ", " unknown)
        (String.concat ", " (List.map fst entries)));
  Printf.printf "relational-data-borg benchmark harness (scale %.2f)\n" scale;
  List.iter (fun name -> (List.assoc name entries) ()) requested
