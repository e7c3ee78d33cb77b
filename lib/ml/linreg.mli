(** Ridge linear regression from the moment matrix (Sections 1.3 and 2.1):
    after the covariance aggregates are in, learning is a small
    optimisation independent of the data size. Gradient-based methods run on
    the moment-space-standardised normal equations; the closed form is one
    Cholesky solve (the accuracy reference of Figure 3). *)

open Relational
open Util
module Feature = Aggregates.Feature

type method_ =
  | Closed_form
  | Gradient_descent of gd_params
      (** steepest descent with exact line search (the Hessian is free from
          the aggregates), run until the gradient's max-norm is below
          [tolerance]; the step budget is the larger of [iterations] and the
          steps the Hessian's condition number guarantees suffice, and a
          run that exhausts it counts in [ml.gd_unconverged] *)
  | Conjugate_gradient of cg_params

and gd_params = { learning_rate : float; iterations : int; tolerance : float }
and cg_params = { cg_iterations : int; cg_tolerance : float }

val default_gd : gd_params
val default_cg : cg_params

type model = {
  feature_columns : string array;
  weights : Vec.t;
  features : Feature.t;
  iterations_run : int;
}

val train :
  ?ridge:float -> ?method_:method_ -> ?warm_start:model -> Feature.t -> Moment.t -> model
(** [warm_start] resumes the gradient methods from a previous model's
    parameters — the Section 1.5 trick that keeps a maintained model's
    refresh below from-scratch retraining. *)

val gd_prediction_bound :
  ridge:float -> tolerance:float -> Moment.t -> (string -> Value.t) -> float
(** How far apart two {!Gradient_descent} runs over these moments that both
    stopped on [tolerance] can predict a raw row: each lies within
    ‖g‖₂/ridge ≤ √d·tolerance/ridge of the ridge optimum in standardised
    space, so their predictions differ by at most
    ‖z‖₂·2·√d·tolerance/ridge for the row's standardised features z. *)

val training_mse : model -> Moment.t -> float
(** Training MSE computed purely from the moments — no data pass. *)

val predict : model -> (string -> Value.t) -> float
(** Predict for a raw row given by attribute lookup; unseen categories
    contribute nothing. *)

val rmse_on : model -> Relation.t -> float
(** RMSE over an explicit (materialised) relation, for evaluation. *)

val encode : Buffer.t -> model -> unit
(** Binary codec; floats round-trip bit-identically. *)

val decode : Codec.reader -> model
(** @raise Relational.Codec.Decode_error on malformed input. *)

type model_options = { ridge : float; method_ : method_ }

(** The {!Model_intf.S} adapter ("linreg-cg"). The CLI-selectable closed-form
    and gradient-descent variants live in {!Models}. *)
module Model :
  Model_intf.S with type model = model and type options = model_options
