(** The covariance-maintenance task shared by the IVM strategies: feature
    ownership (each numeric feature belongs to exactly one relation) and the
    per-relation lifts/factors for the (n+1)^2 covariance batch, with slot 0
    the intercept. *)

open Relational

type t = {
  features : string array;
  dim : int;
  owned : (string, (int * int) list) Hashtbl.t;
}

val make : Database.t -> features:string list -> t
(** Raises if a feature appears in no relation. *)

val owned_features : t -> string -> (int * int) list
(** (feature index, column position) pairs owned by the relation. *)

val lift_into : t -> string -> Column.t array -> int -> into:Rings.Covariance.t -> unit
(** Covariance-ring lift of row [r] of a relation's columns, written into
    a buffer: the sparse (1, x, x x^T) over its owned features, each read
    as {!Value.to_float} would. [lift_into t name cols] resolves the
    relation's owned features once and returns a function that owns a
    feature vector, so one domain at a time may call it. *)

val owned_indices : t -> string -> int array
(** The indices of the features the relation owns, ascending. *)

val lift_owned_into : t -> string -> Column.t array -> int -> into:Rings.Covariance.t -> unit
(** {!lift_into} over the relation's owned features alone: a triple of
    dimension [Array.length (owned_indices t name)], whose feature [k] is
    feature [(owned_indices t name).(k)]. *)

val aggregate_pairs : t -> (int * int) array
(** All (i, j), 0 <= i <= j <= n, of the symmetric batch (0 = intercept). *)

val factor : t -> int * int -> string -> Column.t array -> int -> float
(** The scalar factor row [r] of a relation's columns contributes to
    aggregate (i, j): the owned part of x_i * x_j with x_0 = 1.
    [factor t (i, j) name] resolves the owned positions once. *)

val assemble : t -> ((int * int) * float) list -> Rings.Covariance.t
(** Rebuild the covariance triple from per-aggregate scalar totals. *)
