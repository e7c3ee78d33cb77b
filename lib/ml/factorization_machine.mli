(** Degree-2 factorisation machines (Section 2.1's model list):
    y^ = w0 + sum w_i x_i + sum_{i<j} <v_i, v_j> x_i x_j with rank-r
    factors, trained by full-batch gradient descent on squared loss. The
    factor-part gradients need third/fourth moments that [6]
    reparameterises; here they are computed over the explicit data matrix
    (the substitution documented in DESIGN.md). *)

type model = { w0 : float; w : float array; v : float array array }

type params = {
  rank : int;
  learning_rate : float;
  iterations : int;
  l2 : float;
  init_scale : float;
  seed : int;
}

val default_params : params

val init : params:params -> int -> model
val predict : model -> float array -> float
(** O(n * rank) via the sum-of-squares identity. *)

val train_from_monomial_moments :
  ?params:params -> ?warm:model -> Moment.t -> features:string list -> model
(** Full-batch gradient descent driven purely by the degree-2 basis moments:
    the FM prediction is a linear form over the quadratic basis (with the
    square-term coefficients pinned to 0 and the pair coefficients tied to
    [<v_i, v_j>]), so the c-space gradient is [(A c - b) / N] from the
    moment matrix and the chain rule pushes it onto the factors. Each step
    is independent of the data size; [warm] resumes from a previous model
    (the online-refresh path). *)

val train_on_rows : ?params:params -> float array array -> float array -> model
(** Per-row full-batch gradient descent over an explicit data matrix —
    mathematically the same gradient as {!train_from_monomial_moments},
    kept as the reference side of the moment/data differential test. *)

val mse : model -> float array array -> float array -> float

type named_model = {
  fm_columns : string array;  (** continuous feature names, factor order *)
  machine : model;
}

type model_options = params

(** The {!Model_intf.S} adapter ("fm"): trains from the bundle's monomial
    moments. *)
module Model :
  Model_intf.S with type model = named_model and type options = params
