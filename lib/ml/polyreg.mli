(** Degree-2 ridge polynomial regression over continuous features (Section
    2.1): the quadratic basis's moment matrix consists of SUM-PRODUCT
    aggregates of degree up to 4 — the basis-space moments of {!Monomial} —
    and training is one closed-form ridge solve over it. *)

open Relational

type monomial = Monomial.t
(** Sorted (attribute, power) products; [] is the constant 1. *)

val basis : string list -> monomial list
(** All monomials of total degree <= 2 over the features. *)

val monomial_name : monomial -> string
val mono_mul : monomial -> monomial -> monomial

val batch_for : string list -> response:string -> Aggregates.Batch.t * monomial list
(** The deduplicated aggregate batch covering every basis-pair product and
    basis-response product. *)

type model = { basis_monomials : monomial list; weights : Util.Vec.t; response : string }

val train_from_monomial_moments : ?ridge:float -> Moment.t -> model
(** Closed-form ridge solve over basis-space moments (as built by
    {!Monomial.moment_of_database} / {!Monomial.moment_of_rows}). *)

val predict : model -> (string -> float) -> float
val rmse_on : model -> Relation.t -> float

val encode : Buffer.t -> model -> unit
val decode : Codec.reader -> model

type model_options = { ridge : float }

(** The {!Model_intf.S} adapter ("polyreg"): trains from the bundle's
    monomial moments. *)
module Model :
  Model_intf.S with type model = model and type options = model_options
