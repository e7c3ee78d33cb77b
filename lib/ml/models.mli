(** The model registry: every {!Model_intf} implementation under its CLI
    selector ("linreg-cg", "linreg-closed", "linreg-gd", "polyreg", "fm",
    "huber"), plus the codec and audit helpers that need the full list. *)

val all : Model_intf.t list
val find : string -> Model_intf.t option
val find_exn : string -> Model_intf.t

val decode_packed : Relational.Codec.reader -> Model_intf.packed
(** Inverse of {!Model_intf.encode_packed}: dispatch on the leading model
    name. @raise Relational.Codec.Decode_error on unknown names. *)

val refresh_audit :
  Model_intf.t ->
  [ `Bitwise
  | `Tolerance of float
  | `Bound of Model_intf.moments -> (string -> Relational.Value.t) -> float ]
(** How a warm refresh must compare to a cold retrain over the same
    statistics: [`Bitwise] for direct solves (bit-identical under exact
    input arithmetic); [`Bound] for gradient descent, whose predictions of
    a row over given moments differ by at most the bound its gradient
    tolerance implies ({!Linreg.gd_prediction_bound}); [`Tolerance] (a
    relative prediction tolerance) for the other iterative optimisers. *)
