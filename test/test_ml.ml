(* Tests for the ML layer: every structure-aware trainer must agree with its
   structure-agnostic reference, and each model must actually learn planted
   signal. *)

open Relational
module Feature = Aggregates.Feature
module Spec = Aggregates.Spec
module Cov = Rings.Covariance

let int n = Value.Int n
let flt x = Value.Float x

(* A two-relation database with a planted linear response:
   y = 3 + 2*m - u (+ optional noise), F(a, m, y) joins D(a, u, k) on a.
   k is a categorical with an additive effect of +5 when k = 1. *)
let planted_db ?(rows = 400) ?(noise = 0.0) ~seed () =
  let rng = Util.Prng.create seed in
  let n_keys = 20 in
  let d =
    Relation.create "D"
      (Schema.make [ ("a", Value.TInt); ("u", Value.TFloat); ("k", Value.TInt) ])
  in
  let u_of = Array.make n_keys 0.0 in
  let k_of = Array.make n_keys 0 in
  for a = 0 to n_keys - 1 do
    let u = Util.Prng.float_range rng (-3.0) 3.0 in
    let k = Util.Prng.int rng 3 in
    u_of.(a) <- u;
    k_of.(a) <- k;
    Relation.append d [| int a; flt u; int k |]
  done;
  let f =
    Relation.create "F"
      (Schema.make [ ("a", Value.TInt); ("m", Value.TFloat); ("y", Value.TFloat) ])
  in
  for _ = 1 to rows do
    let a = Util.Prng.int rng n_keys in
    let m = Util.Prng.float_range rng (-5.0) 5.0 in
    let y =
      3.0 +. (2.0 *. m) -. u_of.(a)
      +. (if k_of.(a) = 1 then 5.0 else 0.0)
      +. Util.Prng.gaussian rng ~mu:0.0 ~sigma:noise
    in
    Relation.append f [| int a; flt m; flt y |]
  done;
  Database.create "planted" [ f; d ]

let planted_features =
  Feature.make ~response:"y" ~thresholds_per_feature:8 ~continuous:[ "m"; "u" ]
    ~categorical:[ "k" ] ()

(* ---- moment assembly ---- *)

let test_moment_matches_data_matrix () =
  let db = planted_db ~seed:1 () in
  let features = planted_features in
  let run = Ml.Model_intf.timed_fit (module Ml.Linreg.Model) db features in
  ignore run;
  let batch = Aggregates.Batch.covariance features in
  let table = Lazy.force (Lmfao.Engine.eval db batch).Lmfao.Engine.table in
  let lookup id = Hashtbl.find table id in
  let from_batch = Ml.Moment.of_batch features lookup in
  let join = Database.materialise_join db in
  let onehot = Baseline.One_hot.encode join features in
  let from_matrix = Ml.Moment.of_data_matrix onehot ~response:"y" in
  (* compare by column name; the data-matrix version names the response
     "__response" *)
  let rename c = if c = "__response" then "y" else c in
  Array.iteri
    (fun i ci ->
      Array.iteri
        (fun j cj ->
          let i' = Ml.Moment.column_index from_batch (rename ci) in
          let j' = Ml.Moment.column_index from_batch (rename cj) in
          let a = Util.Mat.get from_matrix.matrix i j in
          let b = Util.Mat.get from_batch.matrix i' j' in
          if Float.abs (a -. b) > 1e-6 *. (1.0 +. Float.abs a) then
            Alcotest.failf "moment (%s, %s): %g vs %g" ci cj a b)
        from_matrix.columns)
    from_matrix.columns

(* ---- linear regression ---- *)

let test_linreg_recovers_plane () =
  let db = planted_db ~seed:2 () in
  let run =
    Ml.Model_intf.timed_fit
      ~options:{ Ml.Linreg.ridge = 1e-6; method_ = Ml.Linreg.Closed_form }
      (module Ml.Linreg.Model) db planted_features
  in
  let join = Database.materialise_join db in
  let rmse = Ml.Linreg.rmse_on run.model join in
  Alcotest.(check bool) (Printf.sprintf "rmse %.4f < 0.05" rmse) true (rmse < 0.05)

let test_gd_close_to_closed_form () =
  let db = planted_db ~seed:3 ~noise:1.0 () in
  let closed =
    Ml.Model_intf.timed_fit
      ~options:{ Ml.Linreg.ridge = 1e-3; method_ = Ml.Linreg.Closed_form }
      (module Ml.Linreg.Model) db planted_features
  in
  let gd =
    Ml.Model_intf.timed_fit
      ~options:
        {
          Ml.Linreg.ridge = 1e-3;
          method_ =
            Ml.Linreg.Gradient_descent
              { learning_rate = 0.05; iterations = 60_000; tolerance = 1e-10 };
        }
      (module Ml.Linreg.Model) db planted_features
  in
  let join = Database.materialise_join db in
  let r1 = Ml.Linreg.rmse_on closed.model join in
  let r2 = Ml.Linreg.rmse_on gd.model join in
  Alcotest.(check bool)
    (Printf.sprintf "gd rmse %.4f within 5%% of closed form %.4f" r2 r1)
    true
    (r2 < r1 *. 1.05 +. 1e-6)

let test_ridge_shrinks () =
  let db = planted_db ~seed:4 ~noise:0.5 () in
  let fit ridge =
    Ml.Model_intf.timed_fit
      ~options:{ Ml.Linreg.ridge; method_ = Ml.Linreg.Closed_form }
      (module Ml.Linreg.Model) db planted_features
  in
  let weak = fit 1e-6 and strong = fit 10.0 in
  Alcotest.(check bool) "stronger ridge, smaller norm" true
    (Util.Vec.norm2 strong.model.weights < Util.Vec.norm2 weak.model.weights)

(* CG's stopping rule bounds the residual 2-norm ||r|| by cg_tolerance (the
   ml.gradient_norm gauge reads ||r||). On this fixed moment set, the
   covariance triple of a 20-row lattice star join, stopping on r.r <
   cg_tolerance instead would quit at ||r|| = 4.9e-7 after 3 of its 12
   iterations. *)
let test_cg_residual_below_tolerance () =
  let q =
    [|
      [| 97.375; 66.83984375; 69.6171875 |];
      [| 66.83984375; 115.92578125; 79.1875 |];
      [| 69.6171875; 79.1875; 89.6328125 |];
    |]
  in
  let cov =
    {
      Cov.c = 20.0;
      s = [| 37.0; 42.9375; 36.875 |];
      q = Util.Mat.init 3 3 (fun i j -> q.(i).(j));
    }
  in
  let moment =
    Ml.Moment.of_covariance cov ~features:[ "m"; "u"; "v" ] ~response:(Some "m")
  in
  let features = Feature.make ~response:"m" ~continuous:[ "u"; "v" ] ~categorical:[] () in
  let p = Ml.Linreg.default_cg in
  Obs.reset ();
  Obs.with_enabled true @@ fun () ->
  let model = Ml.Linreg.train ~method_:(Ml.Linreg.Conjugate_gradient p) features moment in
  let residual = Obs.gauge_value (Obs.gauge "ml.gradient_norm") in
  Obs.reset ();
  Alcotest.(check bool) "stopped by the rule, not the iteration cap" true
    (model.Ml.Linreg.iterations_run < 4 * Array.length model.Ml.Linreg.weights);
  Alcotest.(check bool)
    (Printf.sprintf "final residual %g below cg_tolerance %g" residual p.cg_tolerance)
    true (residual < p.cg_tolerance)

(* ---- decision trees ---- *)

let test_tree_db_equals_flat () =
  let db = planted_db ~seed:5 ~noise:0.3 () in
  let f = planted_features in
  let thresholds = Ml.Decision_tree.thresholds_of_db db f in
  let params = { Ml.Decision_tree.default_params with max_depth = 3 } in
  let t_db = Ml.Decision_tree.train ~params db f in
  let join = Database.materialise_join db in
  let t_flat = Ml.Decision_tree.train_flat ~params join f ~thresholds in
  (* identical predictions on every join row *)
  let schema = Relation.schema join in
  Relation.iter
    (fun t ->
      let get a = t.(Schema.position schema a) in
      let p1 = Ml.Decision_tree.predict t_db get in
      let p2 = Ml.Decision_tree.predict t_flat get in
      if Float.abs (p1 -. p2) > 1e-9 then
        Alcotest.failf "tree predictions differ: %g vs %g" p1 p2)
    join

let test_tree_beats_constant () =
  let db = planted_db ~seed:6 ~noise:0.3 () in
  let f = planted_features in
  let tree =
    Ml.Decision_tree.train
      ~params:{ Ml.Decision_tree.default_params with max_depth = 5 }
      db f
  in
  let join = Database.materialise_join db in
  let rmse = Ml.Decision_tree.rmse_on tree join ~response:"y" in
  (* constant predictor RMSE = std of y *)
  let schema = Relation.schema join in
  let ypos = Schema.position schema "y" in
  let n = float_of_int (Relation.cardinality join) in
  let mean = Relation.fold (fun acc t -> acc +. Value.to_float t.(ypos)) 0.0 join /. n in
  let std =
    sqrt
      (Relation.fold
         (fun acc t -> acc +. ((Value.to_float t.(ypos) -. mean) ** 2.0))
         0.0 join
      /. n)
  in
  Alcotest.(check bool)
    (Printf.sprintf "tree rmse %.3f < 0.6 * std %.3f" rmse std)
    true (rmse < 0.6 *. std)

(* ---- k-means ---- *)

let test_rkmeans_near_lloyd () =
  let db = planted_db ~rows:600 ~seed:7 () in
  let dims = [ "m"; "u" ] in
  let join = Database.materialise_join db in
  let points = Ml.Kmeans.points_of_relation join dims in
  let lloyd = Ml.Kmeans.lloyd ~seed:5 ~k:4 points in
  let rk = Ml.Kmeans.rk_means ~seed:5 ~cells:24 ~k:4 db ~dims in
  (* evaluate rk centroids on the TRUE points *)
  let rk_cost = Ml.Kmeans.cost_of rk.centroids points in
  Alcotest.(check bool)
    (Printf.sprintf "rk cost %.1f <= 1.5 * lloyd cost %.1f" rk_cost lloyd.cost)
    true
    (rk_cost <= (1.5 *. lloyd.cost) +. 1e-6)

(* ---- SVM + additive inequalities ---- *)

let test_svm_separates () =
  let rng = Util.Prng.create 8 in
  let n = 400 in
  let x =
    Array.init n (fun _ ->
        [| 1.0; Util.Prng.float_range rng (-4.0) 4.0; Util.Prng.float_range rng (-4.0) 4.0 |])
  in
  let y = Array.map (fun row -> if row.(1) +. row.(2) > 0.5 then 1.0 else -1.0) x in
  let d = { Ml.Svm.x; y } in
  let w = Ml.Svm.train ~params:{ Ml.Svm.default_params with iterations = 800 } d in
  Alcotest.(check bool) "accuracy > 0.95" true (Ml.Svm.accuracy w d > 0.95)

let inequality_fast_equals_naive =
  QCheck2.Test.make ~count:100 ~name:"inequality sum: fast = naive"
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 30) (pair (float_bound_inclusive 10.0) (float_bound_inclusive 5.0)))
        (list_size (int_range 0 30) (pair (float_bound_inclusive 10.0) (float_bound_inclusive 5.0)))
        (float_bound_inclusive 15.0))
    (fun (l, r, c) ->
      let left = Array.of_list l and right = Array.of_list r in
      let fast = Ml.Inequality.fast_sum_pairs left right ~threshold:c in
      let naive = Ml.Inequality.naive_sum_pairs left right ~threshold:c in
      Float.abs (fast -. naive) <= 1e-6 *. (1.0 +. Float.abs naive))

let test_sum_above () =
  let data = [| (1.0, 10.0); (3.0, 20.0); (5.0, 40.0) |] in
  let s = Ml.Inequality.presort data in
  Alcotest.(check (float 1e-9)) "above 2" 60.0 (Ml.Inequality.sum_above s 2.0);
  Alcotest.(check (float 1e-9)) "above 0" 70.0 (Ml.Inequality.sum_above s 0.0);
  Alcotest.(check (float 1e-9)) "above 5" 0.0 (Ml.Inequality.sum_above s 5.0)

(* ---- PCA ---- *)

let test_pca_finds_planted_direction () =
  let rng = Util.Prng.create 9 in
  let acc = Cov.Acc.create 3 in
  for _ = 1 to 3000 do
    (* variance dominated by direction (1, 1, 0)/sqrt 2 *)
    let t = Util.Prng.gaussian rng ~mu:0.0 ~sigma:5.0 in
    let e1 = Util.Prng.gaussian rng ~mu:0.0 ~sigma:0.3 in
    let e2 = Util.Prng.gaussian rng ~mu:0.0 ~sigma:0.3 in
    Cov.Acc.add_tuple acc [| t +. e1; t -. e1; e2 |]
  done;
  let triple = Cov.Acc.freeze acc in
  match Ml.Pca.components ~k:1 triple with
  | [ c ] ->
      let v = c.vector in
      let dot = Float.abs ((v.(0) +. v.(1)) /. sqrt 2.0) in
      Alcotest.(check bool) "aligned with (1,1,0)" true (dot > 0.99);
      Alcotest.(check bool) "explains most variance" true
        (Ml.Pca.explained_variance triple [ c ] > 0.9)
  | _ -> Alcotest.fail "expected one component"

(* ---- Chow-Liu ---- *)

let test_chow_liu_recovers_chain () =
  (* single-relation database with chain x -> y -> z and independent w *)
  let rng = Util.Prng.create 10 in
  let rel =
    Relation.create "R"
      (Schema.make
         [ ("x", Value.TInt); ("yy", Value.TInt); ("z", Value.TInt); ("w", Value.TInt) ])
  in
  for _ = 1 to 4000 do
    let x = Util.Prng.int rng 4 in
    let y = if Util.Prng.float rng 1.0 < 0.9 then x else Util.Prng.int rng 4 in
    let z = if Util.Prng.float rng 1.0 < 0.9 then y else Util.Prng.int rng 4 in
    let w = Util.Prng.int rng 4 in
    Relation.append rel [| int x; int y; int z; int w |]
  done;
  let db = Database.create "chain" [ rel ] in
  let attrs = [ "x"; "yy"; "z"; "w" ] in
  let tree = Ml.Chow_liu.tree_over_database db attrs in
  Alcotest.(check int) "spanning tree edges" 3 (List.length tree);
  let has a b =
    List.exists
      (fun (e : Ml.Chow_liu.edge) -> (e.a = a && e.b = b) || (e.a = b && e.b = a))
      tree
  in
  Alcotest.(check bool) "x-yy edge" true (has "x" "yy");
  Alcotest.(check bool) "yy-z edge" true (has "yy" "z")

(* ---- functional dependencies ---- *)

let city_country_db ~seed =
  let rng = Util.Prng.create seed in
  let d =
    Relation.create "Loc"
      (Schema.make [ ("a", Value.TInt); ("city", Value.TInt); ("country", Value.TInt) ])
  in
  for a = 0 to 29 do
    let city = a mod 12 in
    Relation.append d [| int a; int city; int (city / 4) |]
  done;
  let f =
    Relation.create "F" (Schema.make [ ("a", Value.TInt); ("m", Value.TFloat) ])
  in
  for _ = 1 to 300 do
    Relation.append f
      [| int (Util.Prng.int rng 30); flt (Util.Prng.float_range rng 0.0 10.0) |]
  done;
  Database.create "fd" [ f; d ]

let test_fd_discovery_and_reconstruction () =
  let db = city_country_db ~seed:11 in
  let fds = Ml.Fd.discover db [ "city"; "country" ] in
  let fd =
    match
      List.find_opt
        (fun (f : Ml.Fd.fd) -> f.determinant = "city" && f.dependent = "country")
        fds
    with
    | Some f -> f
    | None -> Alcotest.fail "city -> country not discovered"
  in
  (* country -> city must NOT hold *)
  Alcotest.(check bool) "country -/-> city" false
    (List.exists
       (fun (f : Ml.Fd.fd) -> f.determinant = "country" && f.dependent = "city")
       fds);
  (* reconstruction: SUM(m) GROUP BY country from SUM(m) GROUP BY city *)
  let dependent_spec =
    Spec.make ~id:"sum(m)|country" ~terms:[ ("m", 1) ] ~group_by:[ "country" ] ()
  in
  let det_spec = Ml.Fd.determinant_spec fd dependent_spec in
  let join = Database.materialise_join db in
  let direct = Spec.eval_flat join dependent_spec in
  let via_fd = Ml.Fd.reconstruct fd ~dependent_spec (Spec.eval_flat join det_spec) in
  Alcotest.(check bool) "reconstruction exact" true (Spec.result_equal direct via_fd)

let test_fd_reduces_batch () =
  let db = city_country_db ~seed:12 in
  let features =
    Feature.make ~response:"m" ~continuous:[] ~categorical:[ "city"; "country" ] ()
  in
  let fds = Ml.Fd.discover db [ "city"; "country" ] in
  let fds =
    List.filter (fun (f : Ml.Fd.fd) -> f.dependent = "country") fds
  in
  let reduced, dropped = Ml.Fd.reduced_covariance_batch features fds in
  Alcotest.(check bool) "batch shrank" true (List.length dropped > 0);
  Alcotest.(check int) "kept + dropped = full"
    (Aggregates.Batch.size (Aggregates.Batch.covariance features))
    (Aggregates.Batch.size reduced + List.length dropped)

(* ---- model selection ---- *)

let test_forward_selection_finds_signal () =
  let db = planted_db ~seed:13 ~noise:0.2 () in
  let batch = Aggregates.Batch.covariance planted_features in
  let table = Lazy.force (Lmfao.Engine.eval db batch).Lmfao.Engine.table in
  let moment = Ml.Moment.of_batch planted_features (Hashtbl.find table) in
  let best, trail = Ml.Model_selection.forward_selection ~max_features:4 moment in
  Alcotest.(check bool) "m selected" true (List.mem "m" best.columns);
  Alcotest.(check bool) "several models tried" true (List.length trail >= 2);
  Alcotest.(check bool) "low mse" true (best.mse < 2.0)

(* ---- polynomial regression ---- *)

let test_polyreg_learns_quadratic () =
  (* y = 1 + 2m + 0.5 m*u over the join *)
  let rng = Util.Prng.create 14 in
  let d = Relation.create "D" (Schema.make [ ("a", Value.TInt); ("u", Value.TFloat) ]) in
  let u_of = Array.init 15 (fun _ -> Util.Prng.float_range rng (-2.0) 2.0) in
  Array.iteri (fun a u -> Relation.append d [| int a; flt u |]) u_of;
  let f =
    Relation.create "F"
      (Schema.make [ ("a", Value.TInt); ("m", Value.TFloat); ("y", Value.TFloat) ])
  in
  for _ = 1 to 400 do
    let a = Util.Prng.int rng 15 in
    let m = Util.Prng.float_range rng (-3.0) 3.0 in
    let y = 1.0 +. (2.0 *. m) +. (0.5 *. m *. u_of.(a)) in
    Relation.append f [| int a; flt m; flt y |]
  done;
  let db = Database.create "quad" [ f; d ] in
  let moment, _ =
    Ml.Monomial.moment_of_database db ~features:[ "m"; "u" ] ~response:"y"
  in
  let model = Ml.Polyreg.train_from_monomial_moments ~ridge:1e-8 moment in
  let join = Database.materialise_join db in
  let rmse = Ml.Polyreg.rmse_on model join in
  Alcotest.(check bool) (Printf.sprintf "rmse %.5f < 0.01" rmse) true (rmse < 0.01)

(* ---- factorisation machines ---- *)

let test_fm_beats_linear_on_interactions () =
  let rng = Util.Prng.create 15 in
  let n = 500 in
  let x =
    Array.init n (fun _ ->
        [| Util.Prng.float_range rng (-2.0) 2.0; Util.Prng.float_range rng (-2.0) 2.0 |])
  in
  let y = Array.map (fun row -> 2.0 *. row.(0) *. row.(1)) x in
  let fm =
    Ml.Factorization_machine.train_on_rows
      ~params:
        { Ml.Factorization_machine.default_params with iterations = 3000; learning_rate = 0.05 }
      x y
  in
  let fm_mse = Ml.Factorization_machine.mse fm x y in
  (* best linear fit of pure interaction data is ~the variance of y *)
  let var_y =
    let mean = Array.fold_left ( +. ) 0.0 y /. float_of_int n in
    Array.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 y /. float_of_int n
  in
  Alcotest.(check bool)
    (Printf.sprintf "fm mse %.3f < 0.5 * var %.3f" fm_mse var_y)
    true
    (fm_mse < 0.5 *. var_y)

(* ---- classification trees ---- *)

(* planted classification data: class = f(m threshold, k category) *)
let classification_db ~seed ~noise =
  let rng = Util.Prng.create seed in
  let d =
    Relation.create "D" (Schema.make [ ("a", Value.TInt); ("k", Value.TInt) ])
  in
  for a = 0 to 19 do
    Relation.append d [| int a; int (a mod 3) |]
  done;
  let f =
    Relation.create "F"
      (Schema.make [ ("a", Value.TInt); ("m", Value.TFloat); ("label", Value.TInt) ])
  in
  for _ = 1 to 500 do
    let a = Util.Prng.int rng 20 in
    let m = Util.Prng.float_range rng (-5.0) 5.0 in
    let k = a mod 3 in
    let true_label = if m > 1.0 || k = 2 then 1 else 0 in
    let label =
      if Util.Prng.float rng 1.0 < noise then 1 - true_label else true_label
    in
    Relation.append f [| int a; flt m; int label |]
  done;
  Database.create "cls" [ f; d ]

let cls_features =
  Feature.make ~thresholds_per_feature:8 ~continuous:[ "m" ] ~categorical:[ "k" ] ()

let test_classification_tree_learns () =
  let db = classification_db ~seed:21 ~noise:0.0 in
  let tree =
    Ml.Classification_tree.train
      ~params:{ Ml.Classification_tree.default_params with max_depth = 3 }
      db ~class_attr:"label" cls_features
  in
  let join = Database.materialise_join db in
  let acc = Ml.Classification_tree.accuracy tree join ~class_attr:"label" in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.3f > 0.95" acc) true (acc > 0.95)

let test_classification_db_equals_flat () =
  let db = classification_db ~seed:22 ~noise:0.1 in
  let params = { Ml.Classification_tree.default_params with max_depth = 3 } in
  let t_db =
    Ml.Classification_tree.train ~params db ~class_attr:"label" cls_features
  in
  let join = Database.materialise_join db in
  let thresholds = Ml.Decision_tree.thresholds_of_db db cls_features in
  let t_flat =
    Ml.Classification_tree.train_flat ~params join ~class_attr:"label" cls_features
      ~thresholds
  in
  let schema = Relation.schema join in
  Relation.iter
    (fun t ->
      let get a = t.(Schema.position schema a) in
      if
        not
          (Value.equal
             (Ml.Classification_tree.predict t_db get)
             (Ml.Classification_tree.predict t_flat get))
      then Alcotest.fail "classification predictions diverge")
    join

let test_entropy_criterion_works () =
  let db = classification_db ~seed:23 ~noise:0.0 in
  let tree =
    Ml.Classification_tree.train
      ~params:
        {
          Ml.Classification_tree.default_params with
          max_depth = 3;
          criterion = Ml.Classification_tree.Entropy;
        }
      db ~class_attr:"label" cls_features
  in
  let join = Database.materialise_join db in
  Alcotest.(check bool) "entropy accuracy > 0.95" true
    (Ml.Classification_tree.accuracy tree join ~class_attr:"label" > 0.95)

(* ---- QR from moments ---- *)

let qr_matches_gram =
  QCheck2.Test.make ~count:50 ~name:"R^T R = Gram, R upper triangular"
    QCheck2.Gen.(pair (int_range 1 6) int)
    (fun (d, seed) ->
      let rng = Util.Prng.create seed in
      let rows = 3 * (d + 2) in
      let x =
        Array.init rows (fun _ ->
            Array.init d (fun _ -> Util.Prng.float_range rng (-3.0) 3.0))
      in
      (* add a ridge so the Gram matrix is PD even for unlucky draws *)
      let gram = Util.Mat.create d d in
      Array.iter (fun row -> Util.Mat.ger ~alpha:1.0 row row gram) x;
      let gram = Util.Mat.add gram (Util.Mat.scale 1e-6 (Util.Mat.identity d)) in
      let r = Ml.Qr.r_of_gram gram in
      Ml.Qr.is_upper_triangular r
      && Util.Mat.equal ~eps:1e-6 (Util.Mat.matmul (Util.Mat.transpose r) r) gram)

let test_qr_q_rows_orthonormal () =
  (* Q^T Q = I, checked by accumulating q q^T over all rows *)
  let rng = Util.Prng.create 77 in
  let d = 4 and rows = 200 in
  let x =
    Array.init rows (fun _ ->
        Array.init d (fun _ -> Util.Prng.float_range rng (-2.0) 2.0))
  in
  let gram = Util.Mat.create d d in
  Array.iter (fun row -> Util.Mat.ger ~alpha:1.0 row row gram) x;
  let r = Ml.Qr.r_of_gram gram in
  let qtq = Util.Mat.create d d in
  Array.iter
    (fun row ->
      let q = Ml.Qr.q_row r row in
      Util.Mat.ger ~alpha:1.0 q q qtq)
    x;
  Alcotest.(check bool) "Q^T Q = I" true
    (Util.Mat.equal ~eps:1e-6 qtq (Util.Mat.identity d))

let test_qr_from_moment () =
  let db = planted_db ~seed:24 ~noise:0.3 () in
  let batch = Aggregates.Batch.covariance planted_features in
  let table = Lazy.force (Lmfao.Engine.eval db batch).Lmfao.Engine.table in
  let moment = Ml.Moment.of_batch planted_features (Hashtbl.find table) in
  let r, cols = Ml.Qr.r_of_moment moment in
  Alcotest.(check bool) "upper triangular" true (Ml.Qr.is_upper_triangular r);
  Alcotest.(check int) "feature columns" (Ml.Moment.width moment - 1)
    (Array.length cols)

(* ---- warm starts (Section 1.5) ---- *)

let test_warm_start_fewer_iterations () =
  let db = planted_db ~seed:25 ~noise:0.5 () in
  let batch = Aggregates.Batch.covariance planted_features in
  let table = Lazy.force (Lmfao.Engine.eval db batch).Lmfao.Engine.table in
  let moment = Ml.Moment.of_batch planted_features (Hashtbl.find table) in
  let gd = Ml.Linreg.Gradient_descent { learning_rate = 0.1; iterations = 50_000; tolerance = 1e-8 } in
  let cold = Ml.Linreg.train ~method_:gd planted_features moment in
  (* warm-start from the converged model: must finish almost immediately *)
  let warm = Ml.Linreg.train ~method_:gd ~warm_start:cold planted_features moment in
  Alcotest.(check bool)
    (Printf.sprintf "warm %d << cold %d iterations" warm.iterations_run
       cold.iterations_run)
    true
    (warm.iterations_run * 10 <= cold.iterations_run + 10);
  Alcotest.(check bool) "same weights" true
    (Util.Vec.equal ~eps:1e-4 warm.weights cold.weights)

(* ---- F engine: factorised covariance = LMFAO's = flat ---- *)

let f_engine_matches =
  QCheck2.Test.make ~count:20 ~name:"F (factorised) covariance = AC/DC ring pass"
    QCheck2.Gen.(pair (int_range 5 80) int)
    (fun (rows, seed) ->
      let db = planted_db ~rows ~seed ~noise:0.5 () in
      let features = [ "y"; "m"; "u" ] in
      let via_f = Ml.F_engine.covariance db ~features in
      let via_acdc = Baseline.Acdc.stage2_shared db ~features in
      Cov.equal_rel ~eps:1e-7 via_f via_acdc)

let test_f_engine_linreg () =
  let db = planted_db ~seed:41 () in
  let model =
    Ml.F_engine.train_linreg ~ridge:1e-8 db ~features:[ "y"; "m"; "u" ] ~response:"y"
  in
  let w_of name =
    let cols = model.Ml.Linreg.feature_columns in
    let rec go i =
      if i >= Array.length cols then Alcotest.failf "missing column %s" name
      else if cols.(i) = name then model.Ml.Linreg.weights.(i)
      else go (i + 1)
    in
    go 0
  in
  (* the planted signal is y = 3 + 2m - u + 5[k=1]; without k's one-hot the
     linear part must still recover the m and u slopes *)
  Alcotest.(check bool) "m slope" true (Float.abs (w_of "m" -. 2.0) < 0.1);
  Alcotest.(check bool) "u slope" true (Float.abs (w_of "u" +. 1.0) < 0.3)

(* ---- SVD / Jacobi ---- *)

let jacobi_diagonalises =
  QCheck2.Test.make ~count:50 ~name:"jacobi: A v = lambda v and V orthogonal"
    QCheck2.Gen.(pair (int_range 1 6) int)
    (fun (n, seed) ->
      let rng = Util.Prng.create seed in
      (* random symmetric matrix *)
      let a =
        Util.Mat.init n n (fun i j ->
            if i <= j then Util.Prng.float_range rng (-3.0) 3.0 else 0.0)
      in
      let a = Util.Mat.init n n (fun i j -> Util.Mat.get a (min i j) (max i j)) in
      let eigenvalues, v = Ml.Svd.jacobi_eigen a in
      (* check A v_c = lambda_c v_c for each column *)
      let ok = ref true in
      for c = 0 to n - 1 do
        let vc = Array.init n (fun r -> Util.Mat.get v r c) in
        let av = Util.Mat.matvec a vc in
        Array.iteri
          (fun r x ->
            if Float.abs (x -. (eigenvalues.(c) *. vc.(r))) > 1e-6 then ok := false)
          av
      done;
      (* V^T V = I *)
      let vtv = Util.Mat.matmul (Util.Mat.transpose v) v in
      !ok && Util.Mat.equal ~eps:1e-6 vtv (Util.Mat.identity n)
      (* descending *)
      && (let sorted = ref true in
          for i = 0 to n - 2 do
            if eigenvalues.(i) < eigenvalues.(i + 1) -. 1e-9 then sorted := false
          done;
          !sorted))

let test_svd_reconstructs_gram () =
  let rng = Util.Prng.create 55 in
  let d = 4 in
  let x =
    Array.init 100 (fun _ -> Array.init d (fun _ -> Util.Prng.float_range rng (-2.0) 2.0))
  in
  let gram = Util.Mat.create d d in
  Array.iter (fun row -> Util.Mat.ger ~alpha:1.0 row row gram) x;
  let svd = Ml.Svd.of_gram gram in
  (* full-rank reconstruction is exact *)
  Alcotest.(check bool) "rank-d error ~ 0" true
    (Ml.Svd.gram_reconstruction_error svd gram ~k:d < 1e-6 *. Util.Mat.frobenius gram);
  (* errors decrease with k *)
  let e1 = Ml.Svd.gram_reconstruction_error svd gram ~k:1 in
  let e3 = Ml.Svd.gram_reconstruction_error svd gram ~k:3 in
  Alcotest.(check bool) "monotone" true (e3 <= e1 +. 1e-9)

let test_svd_u_rows_orthonormal () =
  let rng = Util.Prng.create 56 in
  let d = 3 in
  let x =
    Array.init 300 (fun _ -> Array.init d (fun _ -> Util.Prng.float_range rng (-2.0) 2.0))
  in
  let gram = Util.Mat.create d d in
  Array.iter (fun row -> Util.Mat.ger ~alpha:1.0 row row gram) x;
  let svd = Ml.Svd.of_gram gram in
  let utu = Util.Mat.create d d in
  Array.iter
    (fun row ->
      let u = Ml.Svd.u_row svd row in
      Util.Mat.ger ~alpha:1.0 u u utu)
    x;
  Alcotest.(check bool) "U^T U = I" true
    (Util.Mat.equal ~eps:1e-6 utu (Util.Mat.identity d))

(* ---- Huber regression (Section 2.3) ---- *)

let test_huber_resists_outliers () =
  let rng = Util.Prng.create 57 in
  let n = 400 in
  let x =
    Array.init n (fun _ -> [| 1.0; Util.Prng.float_range rng (-3.0) 3.0 |])
  in
  (* y = 1 + 2x with 10% wild outliers *)
  let y =
    Array.mapi
      (fun i row ->
        let base = 1.0 +. (2.0 *. row.(1)) in
        if i mod 10 = 0 then base +. 80.0 else base)
      x
  in
  let d = { Ml.Huber.x; y } in
  let w_huber =
    Ml.Huber.train_weights ~params:{ Ml.Huber.default_params with iterations = 2000 } d
  in
  (* least squares gets dragged by the outliers; fit it via the moments *)
  let sx = ref 0.0 and sy = ref 0.0 and sxx = ref 0.0 and sxy = ref 0.0 in
  Array.iteri
    (fun i row ->
      sx := !sx +. row.(1);
      sy := !sy +. y.(i);
      sxx := !sxx +. (row.(1) *. row.(1));
      sxy := !sxy +. (row.(1) *. y.(i)))
    x;
  let nf = float_of_int n in
  let ls_slope = ((nf *. !sxy) -. (!sx *. !sy)) /. ((nf *. !sxx) -. (!sx *. !sx)) in
  let ls_intercept = (!sy -. (ls_slope *. !sx)) /. nf in
  Alcotest.(check bool)
    (Printf.sprintf "huber slope %.2f closer to 2 than LS %.2f" w_huber.(1) ls_slope)
    true
    (Float.abs (w_huber.(1) -. 2.0) < Float.abs (ls_slope -. 2.0));
  Alcotest.(check bool)
    (Printf.sprintf "huber intercept %.2f closer to 1 than LS %.2f" w_huber.(0)
       ls_intercept)
    true
    (Float.abs (w_huber.(0) -. 1.0) < Float.abs (ls_intercept -. 1.0))

let test_huber_objective_decreases () =
  let rng = Util.Prng.create 58 in
  let x = Array.init 200 (fun _ -> [| 1.0; Util.Prng.float_range rng (-2.0) 2.0 |]) in
  let y = Array.map (fun row -> 3.0 -. row.(1)) x in
  let d = { Ml.Huber.x; y } in
  let w0 = [| 0.0; 0.0 |] in
  let w =
    Ml.Huber.train_weights ~params:{ Ml.Huber.default_params with iterations = 500 } d
  in
  Alcotest.(check bool) "objective decreased" true
    (Ml.Huber.objective w d < Ml.Huber.objective w0 d)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "ml"
    [
      ( "moment",
        [ Alcotest.test_case "batch = data matrix" `Quick test_moment_matches_data_matrix ] );
      ( "linreg",
        [
          Alcotest.test_case "recovers plane" `Quick test_linreg_recovers_plane;
          Alcotest.test_case "gd close to closed form" `Quick test_gd_close_to_closed_form;
          Alcotest.test_case "ridge shrinks" `Quick test_ridge_shrinks;
          Alcotest.test_case "cg residual below tolerance" `Quick
            test_cg_residual_below_tolerance;
        ] );
      ( "decision-tree",
        [
          Alcotest.test_case "db-trained = flat-trained" `Quick test_tree_db_equals_flat;
          Alcotest.test_case "beats constant" `Quick test_tree_beats_constant;
        ] );
      ("kmeans", [ Alcotest.test_case "rk-means near lloyd" `Quick test_rkmeans_near_lloyd ]);
      ( "svm-inequalities",
        [
          Alcotest.test_case "separates" `Quick test_svm_separates;
          qcheck inequality_fast_equals_naive;
          Alcotest.test_case "sum_above" `Quick test_sum_above;
        ] );
      ("pca", [ Alcotest.test_case "planted direction" `Quick test_pca_finds_planted_direction ]);
      ("chow-liu", [ Alcotest.test_case "recovers chain" `Quick test_chow_liu_recovers_chain ]);
      ( "functional-dependencies",
        [
          Alcotest.test_case "discovery + reconstruction" `Quick
            test_fd_discovery_and_reconstruction;
          Alcotest.test_case "batch reduction" `Quick test_fd_reduces_batch;
        ] );
      ( "model-selection",
        [ Alcotest.test_case "forward selection" `Quick test_forward_selection_finds_signal ] );
      ("polyreg", [ Alcotest.test_case "learns quadratic" `Quick test_polyreg_learns_quadratic ]);
      ( "factorisation-machine",
        [ Alcotest.test_case "beats linear on interactions" `Quick test_fm_beats_linear_on_interactions ] );
      ( "classification-tree",
        [
          Alcotest.test_case "learns planted rule" `Quick test_classification_tree_learns;
          Alcotest.test_case "db-trained = flat-trained" `Quick
            test_classification_db_equals_flat;
          Alcotest.test_case "entropy criterion" `Quick test_entropy_criterion_works;
        ] );
      ( "qr",
        [
          qcheck qr_matches_gram;
          Alcotest.test_case "Q rows orthonormal" `Quick test_qr_q_rows_orthonormal;
          Alcotest.test_case "R from moment matrix" `Quick test_qr_from_moment;
        ] );
      ( "warm-start",
        [ Alcotest.test_case "resume converges immediately" `Quick test_warm_start_fewer_iterations ] );
      ( "svd",
        [
          qcheck jacobi_diagonalises;
          Alcotest.test_case "gram reconstruction" `Quick test_svd_reconstructs_gram;
          Alcotest.test_case "U rows orthonormal" `Quick test_svd_u_rows_orthonormal;
        ] );
      ( "huber",
        [
          Alcotest.test_case "resists outliers" `Quick test_huber_resists_outliers;
          Alcotest.test_case "objective decreases" `Quick test_huber_objective_decreases;
        ] );
      ( "f-engine",
        [
          qcheck f_engine_matches;
          Alcotest.test_case "factorised linreg recovers slopes" `Quick
            test_f_engine_linreg;
        ] );
    ]
