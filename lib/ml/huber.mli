(** Robust (Huber-loss) regression (Section 2.3): the gradient splits per
    tuple on the additive inequality |<w,x> - y| <= delta, so each step is a
    batch of theta-join aggregates under the current parameters. *)

type data = { x : float array array; y : float array }

type params = {
  delta : float;  (** the quadratic/linear crossover band *)
  learning_rate : float;
  iterations : int;
  l2 : float;
}

val default_params : params

val gradient_aggregates : data -> float array -> delta:float -> float array * int
(** One step's inequality-aggregate batch: the per-feature gradient sums and
    the number of in-band tuples. *)

val train_weights : ?params:params -> ?init:float array -> data -> float array
(** The gradient loop; [init] warm-starts it from a previous parameter
    vector (the online-refresh path). *)

val predict : float array -> float array -> float
val objective : ?params:params -> float array -> data -> float

type named_model = {
  columns : string array;  (** one-hot column names; slot 0 is the intercept *)
  weights : float array;
  delta : float;
}

val predict_named : named_model -> (string -> Relational.Value.t) -> float

(** The {!Model_intf.S} adapter ("huber"). Huber's gradient needs per-step
    inequality aggregates under the current parameters, so the adapter
    declares [`Rows] and forces the bundle's data matrix — it cannot refresh
    from a covariance triple alone. *)
module Model :
  Model_intf.S with type model = named_model and type options = params
