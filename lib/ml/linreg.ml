(* Ridge linear regression trained from the moment matrix (Sections 1.3 and
   2.1): once the covariance aggregates are in, learning is a small
   optimisation problem independent of the data size — gradient descent
   converges in milliseconds, and the closed-form ordinary-least-squares
   solution is one Cholesky solve (the accuracy reference of Figure 3). *)

open Relational
open Util
module Feature = Aggregates.Feature

type method_ =
  | Closed_form
  | Gradient_descent of gd_params
  | Conjugate_gradient of cg_params

and gd_params = {
  learning_rate : float;
  iterations : int;
  tolerance : float; (* stop when the gradient's max-norm drops below *)
}

and cg_params = {
  cg_iterations : int;
  cg_tolerance : float; (* stop when the residual's 2-norm drops below *)
}

let default_gd = { learning_rate = 0.1; iterations = 5_000; tolerance = 1e-9 }

let default_cg = { cg_iterations = 1_000; cg_tolerance = 1e-12 }

(* Observability ([ml.*]): convergence effort of the in-moment-space
   optimisers — total iterations across trainings, and the last gradient
   norm (GD: max-norm; CG: residual 2-norm). *)
let c_iterations = Obs.counter "ml.iterations"
let g_grad_norm = Obs.gauge "ml.gradient_norm"

(* GD runs whose step budget ran out before the gradient met the
   tolerance: a budget from the condition number makes this a sign of
   rounding, not of too few steps. *)
let c_unconverged = Obs.counter "ml.gd_unconverged"

type model = {
  feature_columns : string array; (* columns of the weight vector *)
  weights : Vec.t;
  features : Feature.t;
  iterations_run : int;
}

(* Split the moment matrix into the feature block A = X^T X, the response
   correlation b = X^T y, and y^T y. *)
let split (m : Moment.t) =
  let r =
    match m.response_col with
    | Some r -> r
    | None -> invalid_arg "Linreg.train: moment matrix has no response column"
  in
  let w = Moment.width m in
  let keep = Array.of_list (List.filter (fun i -> i <> r) (List.init w Fun.id)) in
  let a =
    Mat.init (Array.length keep) (Array.length keep) (fun i j ->
        Mat.get m.matrix keep.(i) keep.(j))
  in
  let b = Array.map (fun i -> Mat.get m.matrix i r) keep in
  let yy = Mat.get m.matrix r r in
  let columns = Array.map (fun i -> m.columns.(i)) keep in
  (a, b, yy, columns)

(* Training MSE of weights theta, straight from the moments:
   (y^T y - 2 theta^T b + theta^T A theta) / N. No data pass needed. *)
let mse_of_moments a b yy count theta =
  let at = Mat.matvec a theta in
  (yy -. (2.0 *. Vec.dot theta b) +. Vec.dot theta at) /. Stdlib.max 1.0 count

(* Standardise the feature moments (mean 0, variance 1, intercept kept as
   the constant 1) entirely in moment space, returning the standardised
   (A', b') and the map from standardised weights back to raw-space
   weights. *)
let scaling a n =
  let dim = Mat.rows a in
  let mean = Array.init dim (fun i -> Mat.get a 0 i /. n) in
  mean.(0) <- 0.0;
  let std =
    Array.init dim (fun i ->
        if i = 0 then 1.0
        else
          let var = (Mat.get a i i /. n) -. (mean.(i) *. mean.(i)) in
          if var > 1e-12 then sqrt var else 1.0)
  in
  (mean, std)

let standardise ~columns a b n =
  let dim = Array.length b in
  assert (columns.(0) = "intercept");
  let mean, std = scaling a n in
  (* centred features are orthogonal to the constant column, so the
     intercept row/column of A' is (n, 0, ..., 0) *)
  let a' =
    Mat.init dim dim (fun i j ->
        if i = 0 && j = 0 then n
        else if i = 0 || j = 0 then 0.0
        else (Mat.get a i j -. (n *. mean.(i) *. mean.(j))) /. (std.(i) *. std.(j)))
  in
  let sum_y = b.(0) in
  let b' = Array.init dim (fun i -> (b.(i) -. (mean.(i) *. sum_y)) /. std.(i)) in
  let unstandardise (theta : Vec.t) =
    Array.init dim (fun i ->
        if i = 0 then
          theta.(0)
          -. Array.fold_left ( +. ) 0.0
               (Array.init (dim - 1) (fun j ->
                    theta.(j + 1) *. mean.(j + 1) /. std.(j + 1)))
        else theta.(i) /. std.(i))
  in
  (* inverse map, for warm starts from raw-space weights *)
  let restandardise (w : Vec.t) =
    Array.init dim (fun i ->
        if i = 0 then
          w.(0)
          +. Array.fold_left ( +. ) 0.0
               (Array.init (dim - 1) (fun j -> w.(j + 1) *. mean.(j + 1)))
        else w.(i) *. std.(i))
  in
  (a', b', unstandardise, restandardise)

(* An upper bound on the exact-line-search steps that take steepest
   descent on f(theta) = theta' H theta / 2 - c' theta, H = A'/N + ridge I,
   from a gradient of 2-norm [g0] to one below [tol]. H's eigenvalues lie
   in [mu, l] with mu >= ridge (A' is positive semi-definite) and l at
   most H's largest absolute row sum (Gershgorin). An exact line search
   shrinks f - f* by at least rho^2, rho = (kappa - 1) / (kappa + 1) for
   kappa = l / mu (Kantorovich), and ||g||^2 / (2 l) <= f - f* <=
   ||g||^2 / (2 mu), so ||g_k|| <= sqrt kappa * rho^k * g0. Without a
   ridge there is no bound: 0. *)
let gd_steps ~ridge ~n a' ~g0 ~tol =
  let dim = Mat.rows a' in
  let row_sum i =
    let acc = ref 0.0 in
    for j = 0 to dim - 1 do
      acc := !acc +. Float.abs ((Mat.get a' i j /. n) +. if i = j then ridge else 0.0)
    done;
    !acc
  in
  let l = List.fold_left Float.max 0.0 (List.init dim row_sum) in
  if not (ridge > 0.0) || g0 < tol then 0
  else
    let kappa = Float.max 1.0 (l /. ridge) in
    let rho = (kappa -. 1.0) /. (kappa +. 1.0) in
    if rho <= 0.0 then 1
    else 1 + int_of_float (Float.ceil (log (sqrt kappa *. g0 /. tol) /. -.log rho))

let train ?(ridge = 1e-3) ?(method_ = Gradient_descent default_gd) ?warm_start
    (features : Feature.t) (m : Moment.t) : model =
  (* [warm_start] resumes the convergence procedure from a previous model's
     parameters (Section 1.5: refreshing a maintained model "takes less than
     ... computing the parameters from scratch, since we resume ... with
     parameter values that are close to the final ones"). *)
  let a, b, _yy, columns = split m in
  let n = Stdlib.max 1.0 m.count in
  let dim = Array.length b in
  match method_ with
  | Closed_form ->
      (* (A/N + ridge I) theta = b/N *)
      let lhs =
        Mat.init dim dim (fun i j ->
            (Mat.get a i j /. n) +. if i = j then ridge else 0.0)
      in
      let rhs = Array.map (fun x -> x /. n) b in
      {
        feature_columns = columns;
        weights = Mat.solve_spd lhs rhs;
        features;
        iterations_run = 0;
      }
  | Gradient_descent p ->
      (* Gradient of (1/2N)||X theta - y||^2 + (ridge/2)||theta||^2
         = (A theta - b)/N + ridge theta : built from the aggregates and the
         current parameters only (the paper's "gradient vector is built up
         using the computed aggregates"). Standardised in moment space; the
         step size uses exact line search along the gradient (the Hessian is
         available for free from the aggregates). *)
      let a', b', unstandardise, restandardise = standardise ~columns a b n in
      let theta =
        match warm_start with
        | Some (w : model) when Array.length w.weights = dim ->
            restandardise w.weights
        | _ -> Vec.create dim
      in
      let gradient () =
        let at = Mat.matvec a' theta in
        Array.init dim (fun i -> ((at.(i) -. b'.(i)) /. n) +. (ridge *. theta.(i)))
      in
      (* Run until the gradient meets the tolerance: the step budget is
         the larger of [p.iterations] and the steps the Hessian's
         condition number guarantees suffice. *)
      let budget =
        Stdlib.max p.iterations
          (let g = gradient () in
           gd_steps ~ridge ~n a' ~g0:(sqrt (Vec.dot g g)) ~tol:p.tolerance)
      in
      let iterations = ref 0 in
      (try
         for it = 1 to budget do
           iterations := it;
           Obs.incr c_iterations;
           let grad = gradient () in
           if Obs.is_enabled () then Obs.set_gauge g_grad_norm (Vec.norm_inf grad);
           if Vec.norm_inf grad < p.tolerance then raise Exit;
           let hg = Mat.matvec a' grad in
           let gg = Vec.dot grad grad in
           let ghg = (Vec.dot grad hg /. n) +. (ridge *. gg) in
           let alpha = if ghg > 0.0 then gg /. ghg else p.learning_rate in
           Vec.axpy ~alpha:(-.alpha) grad theta
         done;
         Obs.incr c_unconverged
       with Exit -> ());
      {
        feature_columns = columns;
        weights = unstandardise theta;
        features;
        iterations_run = !iterations;
      }
  | Conjugate_gradient p ->
      (* Conjugate gradients on the standardised normal equations
         (A'/N + ridge I) theta = b'/N: converges in at most [dim] steps and
         is still built purely from the aggregates. *)
      let a', b', unstandardise, restandardise = standardise ~columns a b n in
      let apply_h v =
        let av = Mat.matvec a' v in
        Array.mapi (fun i x -> (x /. n) +. (ridge *. v.(i))) av
      in
      let theta =
        match warm_start with
        | Some (w : model) when Array.length w.weights = dim ->
            restandardise w.weights
        | _ -> Vec.create dim
      in
      (* residual r = b'/n - H theta (zero theta gives the usual b'/n) *)
      let h_theta = apply_h theta in
      let r = Array.mapi (fun i x -> (x /. n) -. h_theta.(i)) b' in
      let p_dir = Vec.copy r in
      let rs = ref (Vec.dot r r) in
      let iterations = ref 0 in
      (try
         for it = 1 to Stdlib.min p.cg_iterations (4 * dim) do
           iterations := it;
           Obs.incr c_iterations;
           let residual = sqrt !rs in
           if Obs.is_enabled () then Obs.set_gauge g_grad_norm residual;
           if residual < p.cg_tolerance then raise Exit;
           let hp = apply_h p_dir in
           let php = Vec.dot p_dir hp in
           if php <= 0.0 then raise Exit;
           let alpha = !rs /. php in
           Vec.axpy ~alpha p_dir theta;
           Vec.axpy ~alpha:(-.alpha) hp r;
           let rs' = Vec.dot r r in
           let beta = rs' /. !rs in
           rs := rs';
           for i = 0 to dim - 1 do
             p_dir.(i) <- r.(i) +. (beta *. p_dir.(i))
           done
         done
       with Exit -> ());
      {
        feature_columns = columns;
        weights = unstandardise theta;
        features;
        iterations_run = !iterations;
      }

let training_mse (model : model) (m : Moment.t) =
  let a, b, yy, _ = split m in
  mse_of_moments a b yy m.count model.weights

(* The value of one feature column for a raw row: 1 for the intercept, an
   indicator for a one-hot "attr=value" column, the attribute otherwise. *)
let column_value (get : string -> Value.t) col =
  if col = "intercept" then 1.0
  else
    match String.index_opt col '=' with
    | Some eq ->
        let attr = String.sub col 0 eq in
        let value = String.sub col (eq + 1) (String.length col - eq - 1) in
        if Value.to_string (get attr) = value then 1.0 else 0.0
    | None -> Value.to_float (get col)

(* Predict for a raw (non-encoded) row, given by attribute lookup. Unseen
   categories contribute nothing (their indicator column does not exist). *)
let predict (model : model) (get : string -> Value.t) =
  let acc = ref 0.0 in
  Array.iteri
    (fun i col -> acc := !acc +. (model.weights.(i) *. column_value get col))
    model.feature_columns;
  !acc

(* Ridge makes the objective [ridge]-strongly convex in standardised
   space, so a run that stopped with ||g||_inf < tol, hence ||g||_2 <
   sqrt d * tol, lies within sqrt d * tol / ridge of the optimum. Two such
   runs are within twice that of each other, and a raw prediction is the
   standardised probe z times the standardised weights. *)
let gd_prediction_bound ~ridge ~tolerance (m : Moment.t) get =
  let a, b, _yy, columns = split m in
  let mean, std = scaling a (Stdlib.max 1.0 m.count) in
  let z =
    Array.mapi (fun i col -> (column_value get col -. mean.(i)) /. std.(i)) columns
  in
  let d = float_of_int (Array.length b) in
  sqrt (Vec.dot z z) *. 2.0 *. tolerance *. sqrt d /. ridge

let rmse_on (model : model) (rel : Relation.t) =
  let response =
    match model.features.response with
    | Some r -> r
    | None -> invalid_arg "Linreg.rmse_on: no response"
  in
  let schema = Relation.schema rel in
  let n = Relation.cardinality rel in
  if n = 0 then 0.0
  else begin
    let col_of = Hashtbl.create 16 in
    List.iter
      (fun (a : Schema.attr) ->
        Hashtbl.replace col_of a.name
          (Relation.column rel (Schema.position schema a.name)))
      (Schema.attrs schema);
    let row = ref 0 in
    let get a = Column.get (Hashtbl.find col_of a) !row in
    let se = ref 0.0 in
    for i = 0 to n - 1 do
      row := i;
      let err = predict model get -. Value.to_float (get response) in
      se := !se +. (err *. err)
    done;
    sqrt (!se /. float_of_int n)
  end

(* ---- binary codec (bit-identical float round trip) ---- *)

let encode_feature buf (f : Feature.t) =
  (match f.response with
  | None -> Codec.u8 buf 0
  | Some r ->
      Codec.u8 buf 1;
      Codec.str buf r);
  let strs l =
    Codec.i64 buf (List.length l);
    List.iter (Codec.str buf) l
  in
  strs f.continuous;
  strs f.categorical;
  Codec.i64 buf f.thresholds_per_feature

let decode_feature r : Feature.t =
  let response =
    match Codec.read_u8 r with 0 -> None | _ -> Some (Codec.read_str r)
  in
  let strs () = List.init (Codec.read_i64 r) (fun _ -> Codec.read_str r) in
  let continuous = strs () in
  let categorical = strs () in
  let thresholds_per_feature = Codec.read_i64 r in
  Feature.make ?response ~thresholds_per_feature ~continuous ~categorical ()

let encode buf (m : model) =
  Codec.i64 buf (Array.length m.feature_columns);
  Array.iter (Codec.str buf) m.feature_columns;
  Array.iter (Codec.f64 buf) m.weights;
  encode_feature buf m.features;
  Codec.i64 buf m.iterations_run

let decode r : model =
  let dim = Codec.read_i64 r in
  let feature_columns = Array.init dim (fun _ -> Codec.read_str r) in
  let weights = Array.init dim (fun _ -> Codec.read_f64 r) in
  let features = decode_feature r in
  let iterations_run = Codec.read_i64 r in
  { feature_columns; weights; features; iterations_run }

(* ---- the Model_intf adapter (plus its CLI-selectable variants) ---- *)

type model_options = { ridge : float; method_ : method_ }

module Model = struct
  let name = "linreg-cg"

  let description =
    "ridge linear regression, conjugate gradients on the covariance moments"

  type options = model_options

  let default_options = { ridge = 1e-3; method_ = Conjugate_gradient default_cg }

  type nonrec model = model

  let needs = `Covariance

  let train_from_moments ?(options = default_options) ?warm_start
      (m : Model_intf.moments) =
    train ~ridge:options.ridge ~method_:options.method_ ?warm_start
      m.Model_intf.features
      (Lazy.force m.Model_intf.covariance)

  let refresh ?options ~previous m =
    train_from_moments ?options ~warm_start:previous m

  let predict = predict
  let encode = encode
  let decode = decode
end
