(* The covariance-maintenance task shared by the three IVM strategies: which
   numeric feature lives in which relation, and the per-relation lifts.

   Every feature is owned by exactly one relation (the first one, in
   database order, whose schema contains it), so the ring product across the
   join counts each factor exactly once. Aggregates are indexed over
   0..n with slot 0 the intercept: aggregate (i, j) is SUM(x_i * x_j) with
   x_0 = 1, i.e. the full (n+1)^2 covariance batch of Section 2.1. *)

open Relational

type t = {
  features : string array; (* numeric features; dimension n *)
  dim : int;
  owned : (string, (int * int) list) Hashtbl.t;
      (* relation -> (feature index, column position) for owned features *)
}

let make (db : Database.t) ~features =
  let features = Array.of_list features in
  let owned = Hashtbl.create 8 in
  List.iter
    (fun rel -> Hashtbl.replace owned (Relation.name rel) [])
    (Database.relations db);
  Array.iteri
    (fun i f ->
      let rec claim = function
        | [] -> invalid_arg (Printf.sprintf "Cov_task.make: feature %s not in any relation" f)
        | rel :: rest -> (
            let schema = Relation.schema rel in
            match Schema.position_opt schema f with
            | Some pos ->
                let name = Relation.name rel in
                Hashtbl.replace owned name ((i, pos) :: Hashtbl.find owned name)
            | None -> claim rest)
      in
      claim (Database.relations db))
    features;
  { features; dim = Array.length features; owned }

let owned_features t rel_name =
  Option.value ~default:[] (Hashtbl.find_opt t.owned rel_name)

(* Cell [r] of a column as a float, with [Value.to_float] semantics. *)
let[@inline] cell_float (cols : Column.t array) pos r =
  match Column.data cols.(pos) with
  | Column.Floats a -> a.(r)
  | Column.Ints a -> float_of_int a.(r)
  | Column.Boxed a -> Value.to_float a.(r)

(* Ring lift of row [r] of [rel_name]'s columns, written into a buffer: the
   product of the covariance-ring lifts of its owned features, (1, x, x
   x^T). [lift_into] writes it among all features, with x zero outside
   the owned ones; [lift_owned_into] over the owned features alone, in
   ascending index order. Either resolves the owned features once and
   fills its own feature vector per call. *)
let owned_ascending t rel_name = Array.of_list (List.sort compare (owned_features t rel_name))

(* [slots.(k)] is where owned feature [k]'s value goes in [xs]. *)
let fill_lift owned slots xs cols =
  fun r ~into ->
    for k = 0 to Array.length owned - 1 do
      xs.(slots.(k)) <- cell_float cols (snd owned.(k)) r
    done;
    Rings.Covariance.of_tuple_into xs ~into

let lift_into t rel_name cols =
  let owned = owned_ascending t rel_name in
  fill_lift owned (Array.map fst owned) (Array.make t.dim 0.0) cols

let owned_indices t rel_name = Array.map fst (owned_ascending t rel_name)

let lift_owned_into t rel_name cols =
  let owned = owned_ascending t rel_name in
  let d = Array.length owned in
  fill_lift owned (Array.init d Fun.id) (Array.make d 0.0) cols

(* All (n+1)(n+2)/2 aggregates of the symmetric covariance batch. *)
let aggregate_pairs t =
  let n = t.dim in
  let acc = ref [] in
  for i = 0 to n do
    for j = i to n do
      acc := (i, j) :: !acc
    done
  done;
  Array.of_list (List.rev !acc)

(* Scalar factor contributed by row [r] of [rel_name]'s columns to
   aggregate (i, j): the owned part of x_i * x_j (x_0 = 1). The owned
   positions are resolved once, by [factor t (i, j) rel_name]. *)
let factor t (i, j) rel_name =
  let mine = owned_features t rel_name in
  let position idx =
    if idx = 0 then None else Option.map snd (List.find_opt (fun (f, _) -> f = idx - 1) mine)
  in
  let pi = position i and pj = position j in
  fun cols r ->
    let f = match pi with Some p -> cell_float cols p r | None -> 1.0 in
    let g = match pj with Some p -> cell_float cols p r | None -> 1.0 in
    f *. g

(* Assemble the covariance triple from per-aggregate scalar totals. *)
let assemble t (totals : ((int * int) * float) list) =
  let m = Array.make_matrix (t.dim + 1) (t.dim + 1) 0.0 in
  List.iter
    (fun ((i, j), v) ->
      m.(i).(j) <- v;
      m.(j).(i) <- v)
    totals;
  Rings.Covariance.init t.dim (fun i j -> m.(i).(j))
