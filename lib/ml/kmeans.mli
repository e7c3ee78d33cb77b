(** K-means over relational data (Section 3.3 / Rk-means): weighted Lloyd as
    the structure-agnostic reference, and the structure-aware grid coreset —
    per-dimension quantisation whose joint cell weights are ONE count
    aggregate over the (never materialised) join. *)

open Relational

type clustering = {
  centroids : float array array;  (** k x d *)
  cost : float;  (** weighted sum of squared distances *)
  iterations : int;
}

val sq_dist : float array -> float array -> float
val nearest : float array array -> float array -> int * float

val lloyd :
  ?seed:int -> ?max_iters:int -> k:int -> (float array * float) array -> clustering
(** Weighted Lloyd with greedy farthest-point seeding. *)

val points_of_relation : Relation.t -> string list -> (float array * float) array
(** Unit-weight points from a materialised relation's numeric columns. *)

type grid = { dims : string array; lo : float array; step : float array; cells : int }

val bucket_attr : string -> string
val make_grid : Database.t -> dims:string list -> cells:int -> grid
val cell_of_value : grid -> int -> float -> int
val centre_of_cell : grid -> int -> int -> float

val coreset :
  ?engine_options:Lmfao.Engine.options ->
  Database.t ->
  grid ->
  (float array * float) array
(** Occupied grid cells with their join counts (cell centres as points). *)

val rk_means :
  ?seed:int ->
  ?cells:int ->
  ?engine_options:Lmfao.Engine.options ->
  k:int ->
  Database.t ->
  dims:string list ->
  clustering
(** Cluster the weighted grid coreset instead of the join. *)

val cost_of : float array array -> (float array * float) array -> float
(** Cost of given centroids over explicit weighted points. *)
