(** CART regression trees trained from aggregate batches (Section 2.2): one
    batch of filtered variance triples per tree node answers every candidate
    split; the data matrix is never materialised during training. *)

open Relational
module Spec = Aggregates.Spec
module Feature = Aggregates.Feature

type split =
  | Threshold of string * float  (** goes left when attr >= threshold *)
  | Category of string * Value.t  (** goes left when attr = value *)

type tree =
  | Leaf of { prediction : float; count : float }
  | Node of { split : split; left : tree; right : tree; count : float }

type params = {
  max_depth : int;
  min_samples : float;  (** do not split below this many rows *)
  min_gain : float;  (** minimum SSE reduction to accept a split *)
}

val default_params : params

val sse : count:float -> sum:float -> sum2:float -> float
(** Sum of squared errors around the mean, from a variance triple. *)

type evaluator = Spec.t list -> string -> Spec.result
(** How a node's batch gets answered (engine or flat scans). *)

val node_specs :
  path:Predicate.t -> Feature.t -> (string * float list) list -> Spec.t list
(** The per-node batch under a path filter: total triple, per-threshold
    triples, per-categorical grouped triples. *)

val thresholds_of_db : Database.t -> Feature.t -> (string * float list) list

val train :
  ?params:params ->
  ?engine_options:Lmfao.Engine.options ->
  Database.t ->
  Feature.t ->
  tree
(** Structure-aware training: one LMFAO batch per node. *)

val train_flat :
  ?params:params ->
  Relation.t ->
  Feature.t ->
  thresholds:(string * float list) list ->
  tree
(** The same algorithm with batches answered by scans over a materialised
    matrix — the reference implementation. *)

val equal_bits : tree -> tree -> bool
(** The same splits, counts and predictions at every node, floats by bit
    pattern. *)

val predict : tree -> (string -> Value.t) -> float
val rmse_on : tree -> Relation.t -> response:string -> float
val depth : tree -> int
val size : tree -> int
val pp : ?indent:int -> Format.formatter -> tree -> unit
