(* Batch synthesis: from a learning task to its aggregate batch (Section 2).

   The batch sizes these produce are the quantities reported in the paper's
   Figure 5 — hundreds to thousands of similar aggregates per task, which is
   what makes sharing (LMFAO, the covariance ring) pay off. *)

open Relational

type t = { name : string; aggregates : Spec.t list }

let size b = List.length b.aggregates

(* --- 2.1 least-squares / covariance matrix ---

   For numeric features (continuous + response) and categorical features:
     SUM(1)                                     1
     SUM(Xi), SUM(Xi*Xj)  (i <= j numeric)      n + n(n+1)/2
     SUM(1) GROUP BY K                          per categorical
     SUM(Xi) GROUP BY K                         per (categorical, numeric)
     SUM(1) GROUP BY K1,K2 (K1 < K2)            per categorical pair *)
let covariance (f : Feature.t) =
  let numeric = Feature.numeric f in
  let categorical = f.categorical in
  let aggs = ref [] in
  let push a = aggs := a :: !aggs in
  push (Spec.count ~id:"count");
  List.iter
    (fun x -> push (Spec.make ~id:(Printf.sprintf "sum(%s)" x) ~terms:[ (x, 1) ] ~group_by:[] ()))
    numeric;
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) (x :: rest) @ pairs rest
  in
  List.iter
    (fun (x, y) ->
      let terms = if x = y then [ (x, 2) ] else [ (x, 1); (y, 1) ] in
      push (Spec.make ~id:(Printf.sprintf "sum(%s*%s)" x y) ~terms ~group_by:[] ()))
    (pairs numeric);
  List.iter
    (fun k ->
      push (Spec.make ~id:(Printf.sprintf "count|%s" k) ~terms:[] ~group_by:[ k ] ()))
    categorical;
  List.iter
    (fun k ->
      List.iter
        (fun x ->
          push
            (Spec.make
               ~id:(Printf.sprintf "sum(%s)|%s" x k)
               ~terms:[ (x, 1) ] ~group_by:[ k ] ()))
        numeric)
    categorical;
  let rec cat_pairs = function
    | [] -> []
    | k :: rest -> List.map (fun k' -> (k, k')) rest @ cat_pairs rest
  in
  List.iter
    (fun (k, k') ->
      push
        (Spec.make ~id:(Printf.sprintf "count|%s,%s" k k') ~terms:[] ~group_by:[ k; k' ] ()))
    (cat_pairs categorical);
  { name = "covariance"; aggregates = List.rev !aggs }

(* Threshold candidates for a continuous feature, chosen from its value
   distribution in the base relations (equi-width over observed range). *)
let thresholds_for db attr count =
  let lo = ref infinity and hi = ref neg_infinity in
  List.iter
    (fun rel ->
      let schema = Relation.schema rel in
      match Schema.position_opt schema attr with
      | None -> ()
      | Some i ->
          Relation.iter
            (fun t ->
              let x = Value.to_float t.(i) in
              if x < !lo then lo := x;
              if x > !hi then hi := x)
            rel)
    (Database.relations db);
  if !lo >= !hi then [ !lo ]
  else
    List.init count (fun j ->
        !lo +. ((!hi -. !lo) *. float_of_int (j + 1) /. float_of_int (count + 1)))

(* --- 2.2 decision-tree node costs ---

   Regression trees (CART) need, per candidate split, the response variance
   on each side: VARIANCE(Y) WHERE Xi op c, i.e. the three aggregates
   SUM(Y^2), SUM(Y), SUM(1) under the filter. Continuous features get
   [thresholds_per_feature] threshold filters; categorical features get the
   three aggregates grouped by the feature (one entry per category = the
   set-membership splits). *)
let decision_node ?(db : Database.t option) (f : Feature.t) =
  let y =
    match f.response with
    | Some y -> y
    | None -> invalid_arg "Batch.decision_node: needs a response"
  in
  let aggs = ref [] in
  let push a = aggs := a :: !aggs in
  let variance_triple ~suffix ~filter ~group_by =
    push (Spec.make ~filter ~id:("sum_y2" ^ suffix) ~terms:[ (y, 2) ] ~group_by ());
    push (Spec.make ~filter ~id:("sum_y" ^ suffix) ~terms:[ (y, 1) ] ~group_by ());
    push (Spec.make ~filter ~id:("count" ^ suffix) ~terms:[] ~group_by ())
  in
  List.iter
    (fun x ->
      let ths =
        match db with
        | Some db -> thresholds_for db x f.thresholds_per_feature
        | None ->
            List.init f.thresholds_per_feature (fun j -> float_of_int (j + 1))
      in
      List.iteri
        (fun j c ->
          let filter = Predicate.Ge (x, Value.Float c) in
          variance_triple ~suffix:(Printf.sprintf "|%s>=t%d" x j) ~filter ~group_by:[])
        ths)
    f.continuous;
  List.iter
    (fun k ->
      variance_triple ~suffix:(Printf.sprintf "|by %s" k) ~filter:Predicate.True
        ~group_by:[ k ])
    f.categorical;
  { name = "decision-node"; aggregates = List.rev !aggs }

(* --- mutual information (model selection, Chow-Liu trees) ---

   Pairwise distributions of categorical variables: SUM(1), the marginals
   SUM(1) GROUP BY K, and the joints SUM(1) GROUP BY K1,K2. *)
let mutual_information (attrs : string list) =
  let aggs = ref [ Spec.count ~id:"count" ] in
  List.iter
    (fun k ->
      aggs := Spec.make ~id:(Printf.sprintf "count|%s" k) ~terms:[] ~group_by:[ k ] () :: !aggs)
    attrs;
  let rec pairs = function
    | [] -> []
    | k :: rest -> List.map (fun k' -> (k, k')) rest @ pairs rest
  in
  List.iter
    (fun (k, k') ->
      aggs :=
        Spec.make ~id:(Printf.sprintf "count|%s,%s" k k') ~terms:[] ~group_by:[ k; k' ] ()
        :: !aggs)
    (pairs attrs);
  { name = "mutual-information"; aggregates = List.rev !aggs }

(* --- k-means (Rk-means coresets) ---

   Rk-means clusters a small grid coreset instead of the full join: per
   numeric dimension it needs the total count and the dimension's sums
   grouped by grid cell; categorical dimensions contribute their frequency
   vectors. We approximate grid cells by the categorical group-bys available
   in the schema and per-dimension sums. *)
let kmeans (f : Feature.t) =
  let aggs = ref [ Spec.count ~id:"count" ] in
  List.iter
    (fun x ->
      aggs := Spec.make ~id:(Printf.sprintf "sum(%s)" x) ~terms:[ (x, 1) ] ~group_by:[] () :: !aggs)
    (Feature.numeric f);
  List.iter
    (fun k ->
      aggs := Spec.make ~id:(Printf.sprintf "count|%s" k) ~terms:[] ~group_by:[ k ] () :: !aggs)
    f.categorical;
  { name = "k-means"; aggregates = List.rev !aggs }

(* Evaluate a whole batch naively over a materialised data matrix; the
   reference the engines are tested against, and the "DBX"-style baseline. *)
let eval_flat rel batch =
  List.map (fun spec -> (spec.Spec.id, Spec.eval_flat rel spec)) batch.aggregates

let eval_flat_bounded rel batch =
  List.map (fun spec -> (spec.Spec.id, Spec.eval_flat_bounded rel spec)) batch.aggregates

(* The rounded operations one term of an aggregate can pass through.
   Flat evaluation: P multiplications (P, the batch's largest total
   power) and at most N additions (N, the join's rows). A factorised
   engine: the same P multiplications, at most one per child partial it
   multiplies in (fewer than k, the relations), and per relation R at
   most |R| additions into its view plus at most |R| merges of parallel
   chunks. Twice the larger covers the rounding of the reference's
   Σ|terms| too, since gamma m / (1 - gamma m) <= gamma (2m). *)
let rounding_ops db ~join_rows batch =
  let p =
    List.fold_left
      (fun acc (s : Spec.t) -> Stdlib.max acc (List.fold_left (fun n (_, e) -> n + e) 0 s.terms))
      0 batch.aggregates
  in
  let k = List.length (Database.relations db) in
  2 * (p + k + (2 * Database.total_cardinality db) + join_rows)

let pp ppf b =
  Format.fprintf ppf "batch %s: %d aggregates@\n" b.name (size b);
  List.iter (fun a -> Format.fprintf ppf "  %a@\n" Spec.pp a) b.aggregates

(* Content fingerprint: a hash of the batch's name and, in order, every
   aggregate's id, terms, group-by and filter, read from the structure
   (nothing is printed), so aggregate ORDER matters (two batches answer
   positionally). Equal batches have equal fingerprints; the caches keyed
   by it ([Serve]'s results, [Compile.Engine]'s plans, the admission
   shadow cache) also compare the batches, so a collision costs a miss,
   never another batch's answer. *)
let fingerprint b =
  let mix h x =
    let h = (h lxor x) * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)
  in
  let str h s = mix h (Hashtbl.hash s) in
  let value h = function
    | Value.Null -> mix h 1
    | Value.Int x -> mix (mix h 2) x
    | Value.Float x -> mix (mix h 3) (Hashtbl.hash x)
    | Value.Str s -> str (mix h 4) s
  in
  let rec filter h = function
    | Predicate.True -> mix h 5
    | Predicate.Ge (a, c) -> value (str (mix h 6) a) c
    | Predicate.Lt (a, c) -> value (str (mix h 7) a) c
    | Predicate.Eq (a, c) -> value (str (mix h 8) a) c
    | Predicate.In (a, cs) -> List.fold_left value (mix (str (mix h 9) a) (List.length cs)) cs
    | Predicate.Not p -> filter (mix h 10) p
    | Predicate.And (p, q) -> filter (filter (mix h 11) p) q
    | Predicate.Or (p, q) -> filter (filter (mix h 12) p) q
    | Predicate.Additive_ineq (ts, c) ->
        mix
          (List.fold_left (fun h (a, w) -> mix (str h a) (Hashtbl.hash w)) (mix h 13) ts)
          (Hashtbl.hash c)
  in
  let spec h (s : Spec.t) =
    let h = str h s.id in
    let h = List.fold_left (fun h (a, p) -> mix (str h a) p) (mix h (List.length s.terms)) s.terms in
    let h = List.fold_left str (mix h (List.length s.group_by)) s.group_by in
    filter h s.filter
  in
  List.fold_left spec (str 0 b.name) b.aggregates land max_int

let equal (a : t) b = a == b || compare a b = 0

(* The numeric-only covariance batch: COUNT, SUM(x), SUM(x*y) over the given
   features, no categorical interactions. Exactly the aggregates a serving
   cache can refresh from a maintained covariance triple. *)
let covariance_numeric (features : string list) =
  let aggs = ref [] in
  let push a = aggs := a :: !aggs in
  push (Spec.count ~id:"count");
  List.iter
    (fun x ->
      push (Spec.make ~id:(Printf.sprintf "sum(%s)" x) ~terms:[ (x, 1) ] ~group_by:[] ()))
    features;
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) (x :: rest) @ pairs rest
  in
  List.iter
    (fun (x, y) ->
      let terms = if x = y then [ (x, 2) ] else [ (x, 1); (y, 1) ] in
      push (Spec.make ~id:(Printf.sprintf "sum(%s*%s)" x y) ~terms ~group_by:[] ()))
    (pairs features);
  { name = "covariance-numeric"; aggregates = List.rev !aggs }
