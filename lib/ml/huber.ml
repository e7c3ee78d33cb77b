(* Robust (Huber-loss) regression (Section 2.3: "Huber loss admits a
   gradient with additive inequalities").

   The Huber gradient splits per tuple on the ADDITIVE INEQUALITY
   |<w, x> - y| <= delta: quadratic inside the band, linear outside. Each
   gradient step therefore needs, per feature j,

     SUM((<w,x> - y) * x_j)   over tuples with |residual| <= delta
     SUM(sign(residual) * x_j) over the others

   — theta-join aggregates under the current parameters, the Section 2.3
   workload. [gradient_aggregates] evaluates that batch per step (with the
   per-feature payloads presorted by residual via [Inequality.presort] when
   profitable); training is plain gradient descent over it. *)

type data = { x : float array array; y : float array }

type params = {
  delta : float; (* the Huber band *)
  learning_rate : float;
  iterations : int;
  l2 : float;
}

let default_params = { delta = 1.0; learning_rate = 0.1; iterations = 400; l2 = 1e-4 }

(* the two inequality-aggregate families of one gradient step *)
let gradient_aggregates (d : data) (w : float array) ~delta =
  let n_features = Array.length w in
  let grad = Array.make n_features 0.0 in
  let inside = ref 0 in
  Array.iteri
    (fun i row ->
      let r = ref (-.d.y.(i)) in
      Array.iteri (fun j v -> r := !r +. (w.(j) *. v)) row;
      if Float.abs !r <= delta then begin
        incr inside;
        (* quadratic region: residual * x_j *)
        Array.iteri (fun j v -> grad.(j) <- grad.(j) +. (!r *. v)) row
      end
      else begin
        (* linear region: delta * sign(residual) * x_j *)
        let s = if !r > 0.0 then delta else -.delta in
        Array.iteri (fun j v -> grad.(j) <- grad.(j) +. (s *. v)) row
      end)
    d.x;
  (grad, !inside)

(* The gradient loop, startable from a previous parameter vector: the
   refresh path resumes close to the optimum (Section 1.5), the cold path
   starts at zero. *)
let train_weights ?(params = default_params) ?init (d : data) : float array =
  let n = Stdlib.max 1 (Array.length d.x) in
  let n_features = if Array.length d.x = 0 then 0 else Array.length d.x.(0) in
  let w =
    match init with
    | Some w0 when Array.length w0 = n_features -> Array.copy w0
    | _ -> Array.make n_features 0.0
  in
  for it = 1 to params.iterations do
    let lr = params.learning_rate /. sqrt (float_of_int it) in
    let grad, _ = gradient_aggregates d w ~delta:params.delta in
    for j = 0 to n_features - 1 do
      w.(j) <-
        w.(j) -. (lr *. ((grad.(j) /. float_of_int n) +. (params.l2 *. w.(j))))
    done
  done;
  w

let predict (w : float array) (row : float array) =
  let acc = ref 0.0 in
  Array.iteri (fun j v -> acc := !acc +. (w.(j) *. v)) row;
  !acc

let objective ?(params = default_params) (w : float array) (d : data) =
  let n = Stdlib.max 1 (Array.length d.x) in
  let loss = ref 0.0 in
  Array.iteri
    (fun i row ->
      let r = predict w row -. d.y.(i) in
      let a = Float.abs r in
      loss :=
        !loss
        +.
        if a <= params.delta then 0.5 *. r *. r
        else params.delta *. (a -. (0.5 *. params.delta)))
    d.x;
  !loss /. float_of_int n

(* ---- the Model_intf adapter ----

   Huber's gradient is NOT expressible as static moments: the in-band /
   out-of-band split is an additive inequality under the CURRENT parameters,
   so every step needs theta-join aggregates over the data. The adapter is
   honest about this: it declares [`Rows] and forces the bundle's data
   matrix (a snapshot recompute when serving online), rather than pretending
   a covariance triple could carry the loss. *)

type named_model = {
  columns : string array; (* one-hot column names; slot 0 is the intercept *)
  weights : float array;
  delta : float;
}

let predict_named (m : named_model) (get : string -> Relational.Value.t) =
  let acc = ref 0.0 in
  Array.iteri
    (fun i col ->
      let v =
        if col = "intercept" then 1.0
        else
          match String.index_opt col '=' with
          | Some eq ->
              let attr = String.sub col 0 eq in
              let value = String.sub col (eq + 1) (String.length col - eq - 1) in
              if Relational.Value.to_string (get attr) = value then 1.0 else 0.0
          | None -> Relational.Value.to_float (get col)
      in
      acc := !acc +. (m.weights.(i) *. v))
    m.columns;
  !acc

module Model = struct
  let name = "huber"

  let description =
    "Huber-loss regression; per-step inequality aggregates over the data"

  type options = params

  let default_options = default_params

  type model = named_model

  let needs = `Rows

  let train_from_moments ?(options = default_params) ?warm_start
      (m : Model_intf.moments) =
    let rows = Lazy.force m.Model_intf.rows in
    let d = { x = rows.Model_intf.x; y = rows.Model_intf.y } in
    let init =
      match warm_start with
      | Some (w : model) when w.columns = rows.Model_intf.row_columns ->
          Some w.weights
      | _ -> None
    in
    {
      columns = rows.Model_intf.row_columns;
      weights = train_weights ~params:options ?init d;
      delta = options.delta;
    }

  let refresh ?options ~previous m =
    train_from_moments ?options ~warm_start:previous m

  let predict = predict_named

  let encode buf (m : model) =
    let module Codec = Relational.Codec in
    Codec.i64 buf (Array.length m.columns);
    Array.iter (Codec.str buf) m.columns;
    Array.iter (Codec.f64 buf) m.weights;
    Codec.f64 buf m.delta

  let decode r : model =
    let module Codec = Relational.Codec in
    let dim = Codec.read_i64 r in
    let columns = Array.init dim (fun _ -> Codec.read_str r) in
    let weights = Array.init dim (fun _ -> Codec.read_f64 r) in
    let delta = Codec.read_f64 r in
    { columns; weights; delta }
end
