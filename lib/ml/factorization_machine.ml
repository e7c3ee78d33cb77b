(* Degree-2 factorisation machines (Section 2.1's model list; [6] derives
   their aggregates).

   Model:  y^(x) = w0 + sum_i w_i x_i + sum_{i<j} <v_i, v_j> x_i x_j
   with rank-r factor vectors v_i. The pairwise term rewrites as
   0.5 * sum_f [ (sum_i v_if x_i)^2 - sum_i v_if^2 x_i^2 ], giving O(n r)
   evaluation and gradients. Training uses mini-batch gradient descent on
   squared loss with L2 regularisation.

   The linear part's sufficient statistics are the covariance aggregates
   (shared with [Linreg]); the factor part's gradients involve third and
   fourth moments that [6] reparameterises — here they are computed by
   passes over the (possibly factorised-enumerated) data matrix, which is
   the substitution documented in DESIGN.md. *)

type model = {
  w0 : float;
  w : float array; (* n *)
  v : float array array; (* n x rank *)
}

type params = {
  rank : int;
  learning_rate : float;
  iterations : int; (* epochs *)
  l2 : float;
  init_scale : float;
  seed : int;
}

let default_params =
  { rank = 4; learning_rate = 0.01; iterations = 50; l2 = 1e-4; init_scale = 0.05; seed = 3 }

let init ~params n =
  let rng = Util.Prng.create params.seed in
  {
    w0 = 0.0;
    w = Array.make n 0.0;
    v =
      Array.init n (fun _ ->
          Array.init params.rank (fun _ ->
              Util.Prng.gaussian rng ~mu:0.0 ~sigma:params.init_scale));
  }

let predict (m : model) (x : float array) =
  let n = Array.length x in
  let rank = if n = 0 then 0 else Array.length m.v.(0) in
  let linear = ref m.w0 in
  for i = 0 to n - 1 do
    linear := !linear +. (m.w.(i) *. x.(i))
  done;
  let pair = ref 0.0 in
  for f = 0 to rank - 1 do
    let s = ref 0.0 and s2 = ref 0.0 in
    for i = 0 to n - 1 do
      let t = m.v.(i).(f) *. x.(i) in
      s := !s +. t;
      s2 := !s2 +. (t *. t)
    done;
    pair := !pair +. (0.5 *. ((!s *. !s) -. !s2))
  done;
  !linear +. !pair

(* Full-batch gradient descent driven purely by the degree-2 BASIS moments
   (degree-4 aggregates) — the reparameterisation of [6] made concrete: the
   FM prediction is a linear form c . phi(x) over the quadratic basis with

     c_1 = w0,   c_{x_i} = w_i,   c_{x_i x_j} = <v_i, v_j> (i < j),
     c_{x_i^2} = 0,

   so the squared-loss gradient in c-space is (A c - b) / N with A, b read
   from the basis-space moment matrix, and the chain rule pushes it onto the
   factors: dL/dv_if = sum_{j<>i} (A c - b)_{x_i x_j} v_jf. Each step is
   O(|basis|^2) independent of the data size — after a delta batch the
   refresher recomputes the moments once and resumes from the previous
   parameters. *)
let train_from_monomial_moments ?(params = default_params) ?warm (m : Moment.t)
    ~(features : string list) : model =
  let open Util in
  let n_feat = List.length features in
  let col name =
    match Hashtbl.find_opt m.Moment.index name with
    | Some i -> i
    | None -> invalid_arg ("Factorization_machine: missing basis column " ^ name)
  in
  let feat = Array.of_list features in
  let icpt = col "intercept" in
  let lin = Array.map (fun x -> col (Monomial.name [ (x, 1) ])) feat in
  let pair i j =
    col (Monomial.name (Monomial.mul [ (feat.(i), 1) ] [ (feat.(j), 1) ]))
  in
  let pair_idx =
    Array.init n_feat (fun i ->
        Array.init n_feat (fun j -> if i = j then -1 else pair i j))
  in
  let resp =
    match m.Moment.response_col with
    | Some r -> r
    | None -> invalid_arg "Factorization_machine: moments have no response"
  in
  let dim = Moment.width m - 1 in
  if resp <> dim then
    invalid_arg "Factorization_machine: response must be the last column";
  let n = Stdlib.max 1.0 m.Moment.count in
  let current =
    ref
      (match warm with
      | Some (w : model) when Array.length w.w = n_feat -> w
      | _ -> init ~params n_feat)
  in
  let c = Array.make dim 0.0 in
  for _ = 1 to params.iterations do
    let model = !current in
    (* coefficients of the equivalent linear form over the basis *)
    Array.fill c 0 dim 0.0;
    c.(icpt) <- model.w0;
    Array.iteri (fun i k -> c.(k) <- model.w.(i)) lin;
    for i = 0 to n_feat - 1 do
      for j = i + 1 to n_feat - 1 do
        c.(pair_idx.(i).(j)) <- Vec.dot model.v.(i) model.v.(j)
      done
    done;
    (* c-space gradient (A c - b), straight from the moments *)
    let g =
      Array.init dim (fun k ->
          let acc = ref (-.Mat.get m.Moment.matrix k resp) in
          for j = 0 to dim - 1 do
            acc := !acc +. (Mat.get m.Moment.matrix k j *. c.(j))
          done;
          !acc)
    in
    let scale = params.learning_rate /. n in
    current :=
      {
        w0 = model.w0 -. (scale *. g.(icpt));
        w =
          Array.mapi
            (fun i w -> w -. (scale *. (g.(lin.(i)) +. (params.l2 *. w))))
            model.w;
        v =
          Array.mapi
            (fun i vi ->
              Array.mapi
                (fun f vif ->
                  let gv = ref 0.0 in
                  for j = 0 to n_feat - 1 do
                    if j <> i then
                      gv := !gv +. (g.(pair_idx.(i).(j)) *. model.v.(j).(f))
                  done;
                  vif -. (scale *. (!gv +. (params.l2 *. vif))))
                vi)
            model.v;
      }
  done;
  !current

let train_on_rows ?(params = default_params) (x : float array array)
    (y : float array) : model =
  let n_rows = Array.length x in
  let n = if n_rows = 0 then 0 else Array.length x.(0) in
  let m = ref (init ~params n) in
  for _ = 1 to params.iterations do
    let model = !m in
    let g_w0 = ref 0.0 in
    let g_w = Array.make n 0.0 in
    let g_v = Array.init n (fun _ -> Array.make params.rank 0.0) in
    Array.iteri
      (fun r row ->
        let err = predict model row -. y.(r) in
        g_w0 := !g_w0 +. err;
        (* precompute per-factor sums *)
        let sums = Array.make params.rank 0.0 in
        for f = 0 to params.rank - 1 do
          for i = 0 to n - 1 do
            sums.(f) <- sums.(f) +. (model.v.(i).(f) *. row.(i))
          done
        done;
        for i = 0 to n - 1 do
          g_w.(i) <- g_w.(i) +. (err *. row.(i));
          for f = 0 to params.rank - 1 do
            let grad =
              row.(i) *. sums.(f) -. (model.v.(i).(f) *. row.(i) *. row.(i))
            in
            g_v.(i).(f) <- g_v.(i).(f) +. (err *. grad)
          done
        done)
      x;
    let scale = params.learning_rate /. float_of_int (Stdlib.max 1 n_rows) in
    m :=
      {
        w0 = model.w0 -. (scale *. !g_w0);
        w =
          Array.mapi
            (fun i w -> w -. (scale *. (g_w.(i) +. (params.l2 *. w))))
            model.w;
        v =
          Array.mapi
            (fun i vi ->
              Array.mapi
                (fun f vif -> vif -. (scale *. (g_v.(i).(f) +. (params.l2 *. vif))))
                vi)
            model.v;
      }
  done;
  !m

(* ---- the Model_intf adapter ---- *)

type named_model = {
  fm_columns : string array; (* continuous feature names, factor order *)
  machine : model;
}

type model_options = params

module Model = struct
  let name = "fm"

  let description =
    "degree-2 factorisation machine, gradient descent on the basis moments"

  type options = params

  let default_options = default_params

  type model = named_model

  let needs = `Monomial

  let train_from_moments ?(options = default_params) ?warm_start
      (m : Model_intf.moments) =
    let features = m.Model_intf.features.Aggregates.Feature.continuous in
    let columns = Array.of_list features in
    let warm =
      match warm_start with
      | Some (w : model) when w.fm_columns = columns -> Some w.machine
      | _ -> None
    in
    {
      fm_columns = columns;
      machine =
        train_from_monomial_moments ~params:options ?warm
          (Lazy.force m.Model_intf.monomial)
          ~features;
    }

  let refresh ?options ~previous m =
    train_from_moments ?options ~warm_start:previous m

  let predict (m : model) (get : string -> Relational.Value.t) =
    predict m.machine
      (Array.map (fun c -> Relational.Value.to_float (get c)) m.fm_columns)

  let encode buf (m : model) =
    let module Codec = Relational.Codec in
    Codec.i64 buf (Array.length m.fm_columns);
    Array.iter (Codec.str buf) m.fm_columns;
    Codec.f64 buf m.machine.w0;
    Array.iter (Codec.f64 buf) m.machine.w;
    let rank =
      if Array.length m.machine.v = 0 then 0 else Array.length m.machine.v.(0)
    in
    Codec.i64 buf rank;
    Array.iter (fun vi -> Array.iter (Codec.f64 buf) vi) m.machine.v

  let decode r : model =
    let module Codec = Relational.Codec in
    let n = Codec.read_i64 r in
    let fm_columns = Array.init n (fun _ -> Codec.read_str r) in
    let w0 = Codec.read_f64 r in
    let w = Array.init n (fun _ -> Codec.read_f64 r) in
    let rank = Codec.read_i64 r in
    let v =
      Array.init n (fun _ -> Array.init rank (fun _ -> Codec.read_f64 r))
    in
    { fm_columns; machine = { w0; w; v } }
end

let mse (m : model) x y =
  let n = Array.length x in
  if n = 0 then 0.0
  else begin
    let se = ref 0.0 in
    Array.iteri
      (fun i row ->
        let err = predict m row -. y.(i) in
        se := !se +. (err *. err))
      x;
    !se /. float_of_int n
  end
