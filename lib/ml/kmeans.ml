(* K-means over relational data (Section 3.3, Rk-means [23]).

   Two paths:
   - [lloyd]: standard weighted Lloyd iterations over explicit points — the
     structure-agnostic reference when run over the materialised join.
   - [rk_means]: the structure-aware path. Each numeric dimension is
     quantised into a per-dimension grid (equi-width over the dimension's
     observed range); the joint grid-cell weights are ONE count aggregate
     grouped by the per-relation bucket columns, evaluated by LMFAO over the
     (never materialised) join. Lloyd then clusters the weighted grid — a
     coreset whose size is bounded by the number of OCCUPIED cells, not by
     the join. This matches Rk-means' grid-coreset construction and keeps
     its constant-factor approximation flavour: every join tuple is moved to
     its cell centre, displacing it by at most half a cell diagonal. *)

open Relational
module Spec = Aggregates.Spec

type clustering = {
  centroids : float array array; (* k x d *)
  cost : float; (* weighted sum of squared distances *)
  iterations : int;
}

let sq_dist a b =
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. ((x -. b.(i)) ** 2.0)) a;
  !acc

let nearest centroids p =
  let best = ref 0 and best_d = ref infinity in
  Array.iteri
    (fun c centre ->
      let d = sq_dist p centre in
      if d < !best_d then begin
        best := c;
        best_d := d
      end)
    centroids;
  (!best, !best_d)

(* Weighted Lloyd with k-means++-style seeding (greedy farthest point on the
   weighted points, deterministic given the PRNG seed). *)
let lloyd ?(seed = 1) ?(max_iters = 50) ~k (points : (float array * float) array) :
    clustering =
  if Array.length points = 0 then
    { centroids = [||]; cost = 0.0; iterations = 0 }
  else begin
    let rng = Util.Prng.create seed in
    let d = Array.length (fst points.(0)) in
    let k = Stdlib.min k (Array.length points) in
    (* seeding: first uniform, then weighted-distance greedy *)
    let centroids = Array.make k (Array.make d 0.0) in
    centroids.(0) <- Array.copy (fst points.(Util.Prng.int rng (Array.length points)));
    for c = 1 to k - 1 do
      let far = ref 0 and far_d = ref neg_infinity in
      Array.iteri
        (fun i (p, w) ->
          let dmin = ref infinity in
          for c' = 0 to c - 1 do
            dmin := Stdlib.min !dmin (sq_dist p centroids.(c'))
          done;
          let score = w *. !dmin in
          if score > !far_d then begin
            far := i;
            far_d := score
          end)
        points;
      centroids.(c) <- Array.copy (fst points.(!far))
    done;
    let cost = ref infinity in
    let iterations = ref 0 in
    (try
       for it = 1 to max_iters do
         iterations := it;
         let sums = Array.init k (fun _ -> Array.make d 0.0) in
         let weights = Array.make k 0.0 in
         let new_cost = ref 0.0 in
         Array.iter
           (fun (p, w) ->
             let c, dist = nearest centroids p in
             new_cost := !new_cost +. (w *. dist);
             weights.(c) <- weights.(c) +. w;
             Array.iteri (fun i x -> sums.(c).(i) <- sums.(c).(i) +. (w *. x)) p)
           points;
         for c = 0 to k - 1 do
           if weights.(c) > 0.0 then
             centroids.(c) <- Array.map (fun s -> s /. weights.(c)) sums.(c)
         done;
         if !new_cost >= !cost -. 1e-12 then begin
           cost := !new_cost;
           raise Exit
         end;
         cost := !new_cost
       done
     with Exit -> ());
    { centroids; cost = !cost; iterations = !iterations }
  end

let points_of_relation (rel : Relation.t) (dims : string list) =
  let schema = Relation.schema rel in
  let cols =
    Array.of_list
      (List.map (fun d -> Relation.column rel (Schema.position schema d)) dims)
  in
  Array.init (Relation.cardinality rel) (fun i ->
      (Array.map (fun c -> Column.float_at c i) cols, 1.0))

(* ---- the structure-aware grid coreset ---- *)

type grid = { dims : string array; lo : float array; step : float array; cells : int }

let bucket_attr dim = "__bucket_" ^ dim

(* Per-dimension range from the base relations (each dimension lives in one
   relation; no join needed). *)
let make_grid (db : Database.t) ~(dims : string list) ~(cells : int) : grid =
  let dims = Array.of_list dims in
  let lo = Array.make (Array.length dims) infinity in
  let hi = Array.make (Array.length dims) neg_infinity in
  Array.iteri
    (fun i dim ->
      List.iter
        (fun rel ->
          match Schema.position_opt (Relation.schema rel) dim with
          | None -> ()
          | Some pos ->
              let col = Relation.column rel pos in
              for row = 0 to Relation.cardinality rel - 1 do
                let x = Column.float_at col row in
                if x < lo.(i) then lo.(i) <- x;
                if x > hi.(i) then hi.(i) <- x
              done)
        (Database.relations db))
    dims;
  let step =
    Array.mapi
      (fun i h ->
        let range = h -. lo.(i) in
        if range <= 0.0 then 1.0 else range /. float_of_int cells)
      hi
  in
  { dims; lo; step; cells }

let cell_of_value g i x =
  Stdlib.min (g.cells - 1)
    (Stdlib.max 0 (int_of_float ((x -. g.lo.(i)) /. g.step.(i))))

let centre_of_cell g i c = g.lo.(i) +. ((float_of_int c +. 0.5) *. g.step.(i))

(* The weighted coreset: occupied grid cells with their join counts. Each
   relation owning a dimension gains that dimension's bucket column, and
   the grid weights are one COUNT GROUP BY the bucket columns. *)
let coreset ?(engine_options = Lmfao.Engine.default_options) (db : Database.t)
    (g : grid) : (float array * float) array =
  let db' =
    Lmfao.Derived.augment db
      (Array.to_list
         (Array.mapi
            (fun i dim ->
              (dim, bucket_attr dim, fun v -> cell_of_value g i (Value.to_float v)))
            g.dims))
  in
  let spec =
    Spec.make ~id:"cells" ~terms:[]
      ~group_by:(Array.to_list (Array.map bucket_attr g.dims))
      ()
  in
  let results =
    (Lmfao.Engine.eval ~options:engine_options db'
       { Aggregates.Batch.name = "kmeans-grid"; aggregates = [ spec ] })
      .keyed
  in
  let cells = List.assoc "cells" results in
  Array.of_list
    (List.map
       (fun (assignment, w) ->
         let point =
           Array.mapi
             (fun i dim ->
               match List.assoc_opt (bucket_attr dim) assignment with
               | Some v -> centre_of_cell g i (Value.to_int v)
               | None -> invalid_arg "Kmeans.coreset: missing bucket")
             g.dims
         in
         (point, w))
       cells)

(* Rk-means: cluster the weighted grid coreset instead of the join. *)
let rk_means ?(seed = 1) ?(cells = 16) ?engine_options ~k (db : Database.t)
    ~(dims : string list) : clustering =
  let g = make_grid db ~dims ~cells in
  let points = coreset ?engine_options db g in
  lloyd ~seed ~k points

(* Cost of given centroids over explicit (point, weight) data. *)
let cost_of centroids points =
  Array.fold_left
    (fun acc (p, w) -> acc +. (w *. snd (nearest centroids p)))
    0.0 points
