(** Batch synthesis: from a learning task to its aggregate batch (Section 2).
    The batch sizes these produce are the Figure 5 quantities. *)

open Relational

type t = { name : string; aggregates : Spec.t list }

val size : t -> int

val covariance : Feature.t -> t
(** Section 2.1: COUNT, SUM(Xi), SUM(Xi*Xj) over numeric features, plus the
    group-by counts/sums encoding all categorical interactions sparsely. *)

val thresholds_for : Database.t -> string -> int -> float list
(** Equi-width threshold candidates for a continuous attribute, from its
    observed range in the base relations. *)

val decision_node : ?db:Database.t -> Feature.t -> t
(** Section 2.2: the variance triples (SUM(y^2), SUM(y), COUNT) per
    candidate split — threshold filters for continuous features (thresholds
    from [db] when given), grouped triples for categorical ones. *)

val mutual_information : string list -> t
(** COUNT plus all marginal and pairwise joint counts over the attributes
    (model selection / Chow-Liu trees). *)

val kmeans : Feature.t -> t
(** Rk-means-style sufficient statistics: COUNT, per-dimension sums, and
    categorical frequency vectors. *)

val eval_flat : Relation.t -> t -> (string * Spec.result) list
(** Naive evaluation of the whole batch over a materialised data matrix. *)

val eval_flat_bounded : Relation.t -> t -> (string * Spec.bounded) list
(** {!eval_flat} with each group's Σ|terms| ({!Spec.eval_flat_bounded}). *)

val rounding_ops : Database.t -> join_rows:int -> t -> int
(** The [m] of {!Spec.within_bound} for a batch over a database whose
    join has [join_rows] rows, evaluated flat over the join or by a
    factorised engine over the relations:
    2·(P + k + 2·Σ|R| + N), with P the batch's largest total power, k the
    relations, Σ|R| their total cardinality and N = [join_rows]. Flat
    evaluation passes a term through at most P + N rounded operations; a
    factorised one through at most P + k + 2·Σ|R| (its P multiplications,
    one per child partial, and per relation at most |R| additions into a
    view plus |R| merges of parallel chunks). The factor two covers the
    rounding of the reference's Σ|terms|. *)

val pp : Format.formatter -> t -> unit

val fingerprint : t -> int
(** Order-sensitive content fingerprint of the batch: a hash of its name
    and every aggregate's id, terms, group-by and filter, read from their
    structure; non-negative and stable across processes. Cache key
    material: equal batches have equal fingerprints, and a cache that
    keys by it also checks {!equal} on a hit. *)

val equal : t -> t -> bool
(** Structural equality ([compare = 0]), immediate for the same value. *)

val covariance_numeric : string list -> t
(** The numeric part of {!covariance} over an explicit feature list: COUNT,
    SUM(x) and SUM(x*y) only — the batch shape a covariance-maintaining
    serving cache can refresh without recomputation. *)
