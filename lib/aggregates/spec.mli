(** The aggregate language of Section 2:

    [SUM(X1^p1 * ... * Xk^pk) WHERE filter GROUP BY Z1,...,Zm]

    with continuous attributes in the product, categorical attributes in the
    group-by (the sparse-tensor encoding of one-hot interactions), and
    filters covering thresholds, set membership and additive inequalities.
    The empty product is COUNT. *)

open Relational

type t = {
  id : string;
  terms : (string * int) list;  (** (attribute, power), sorted, powers >= 1 *)
  group_by : string list;  (** sorted categorical attributes *)
  filter : Predicate.t;
}

val make :
  ?filter:Predicate.t ->
  id:string ->
  terms:(string * int) list ->
  group_by:string list ->
  unit ->
  t
(** Normalises term order and group-by; drops zero powers. *)

val count : id:string -> t
(** COUNT: no terms, no groups, no filter. *)

val attrs : t -> string list
(** Sorted distinct attributes mentioned anywhere in the aggregate. *)

val canonical : t -> string
(** Structural key ignoring [id] — the dedup key for LMFAO's sharing. Its
    own printer writes every filter constant exactly (floats in
    hexadecimal), so two specs share a key iff they agree in everything
    but [id]. *)

val is_scalar : t -> bool

type result = ((string * Value.t) list * float) list
(** Grouped sums keyed by sorted assignments; scalar results use key []. *)

val scalar_result : result -> float
(** The value of a scalar result (0 when empty). Raises on grouped results. *)

val lookup : result -> (string * Value.t) list -> float
(** Value at an assignment, 0 when absent. *)

val eval_flat : Relation.t -> t -> result
(** Reference evaluation: one scan over a materialised data matrix with a
    hash group-by. Also the per-aggregate baselines' inner loop. *)

val to_sql : ?relation:string -> t -> string
(** The SQL the aggregate stands for over the feature-extraction query
    (Section 2.1's "SELECT X, agg FROM Q GROUP BY X"). *)

type bounded = ((string * Value.t) list * float * float) list
(** Grouped sums, each with the sum of its terms' absolute values. *)

val eval_flat_bounded : Relation.t -> t -> bounded
(** {!eval_flat}, with Σ|term product| accumulated beside each group's
    sum in the same scan. *)

val within_bound : m:int -> bounded -> result -> bool
(** [within_bound ~m reference r]: every group's value [v] in [r] lies
    within 2·γₘ·Σ|terms| of the reference sum, with Higham's
    γₘ = m·u / (1 − m·u), u = 2⁻⁵³ (infinite once m·u ≥ 1), where both
    come from evaluations that pass each term through at most [m] rounded
    additions and multiplications. A group absent on one side counts as 0
    there, with Σ|terms| = 0 when the reference lacks it. Any order of
    groups. *)

val keyed_within_bound : m:int -> (string * bounded) list -> (string * result) list -> bool
(** Batch results: exactly the reference's aggregate ids, in any order,
    each {!within_bound}. *)

val result_equal : ?eps:float -> result -> result -> bool
(** Numeric equality up to relative [eps], in any group order. *)

val result_bits_equal : result -> result -> bool
(** Bitwise equality: the same groups in the same order, keys equal as
    values ({!Relational.Value.equal}), sums equal by bit pattern. *)

val keyed_bits_equal : (string * result) list -> (string * result) list -> bool
(** Batch results: the same aggregate ids in the same order, each pair
    {!result_bits_equal}. Order-sensitive; compare {!sort_keyed} forms to
    ignore order. *)

val sort_keyed : (string * result) list -> (string * result) list
(** The canonical order: aggregates by id, groups by key (attribute name,
    then {!Relational.Value.compare}). *)

val pp : Format.formatter -> t -> unit
