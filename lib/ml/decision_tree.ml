(* CART regression trees trained from aggregate batches (Section 2.2).

   Every split decision needs, per candidate (feature, condition), the
   response variance on each side — i.e. the triple SUM(y^2), SUM(y),
   SUM(1) under the node's path filter conjoined with the condition. These
   are exactly the filtered aggregates of the decision-node batch; one batch
   per tree node answers ALL candidate splits at once, and the engine never
   materialises the data matrix. Thresholds for continuous features come
   from the value distribution; categorical features use one-vs-rest splits
   read off a single GROUP BY triple. *)

open Relational
module Spec = Aggregates.Spec
module Feature = Aggregates.Feature

type split =
  | Threshold of string * float (* goes left when attr >= threshold *)
  | Category of string * Value.t (* goes left when attr = value *)

type tree =
  | Leaf of { prediction : float; count : float }
  | Node of { split : split; left : tree; right : tree; count : float }

type params = { max_depth : int; min_samples : float; min_gain : float }

let default_params = { max_depth = 4; min_samples = 10.0; min_gain = 1e-6 }

(* sum of squared errors around the mean, from the (count, sum, sum2) triple *)
let sse ~count ~sum ~sum2 =
  if count <= 0.0 then 0.0 else sum2 -. (sum *. sum /. count)

type evaluator = Spec.t list -> (string -> Spec.result)

(* the per-node batch: total triple, one filtered triple per continuous
   threshold, one grouped triple per categorical feature *)
let node_specs ~(path : Predicate.t) (f : Feature.t)
    (thresholds : (string * float list) list) : Spec.t list =
  let y = Option.get f.response in
  let with_path extra =
    match (path, extra) with
    | Predicate.True, e -> e
    | p, Predicate.True -> p
    | p, e -> Predicate.And (p, e)
  in
  let triple ~prefix ~filter ~group_by =
    [
      Spec.make ~filter ~id:(prefix ^ "#n") ~terms:[] ~group_by ();
      Spec.make ~filter ~id:(prefix ^ "#s") ~terms:[ (y, 1) ] ~group_by ();
      Spec.make ~filter ~id:(prefix ^ "#s2") ~terms:[ (y, 2) ] ~group_by ();
    ]
  in
  triple ~prefix:"total" ~filter:(with_path Predicate.True) ~group_by:[]
  @ List.concat_map
      (fun x ->
        let ths = Option.value ~default:[] (List.assoc_opt x thresholds) in
        List.concat
          (List.mapi
             (fun j c ->
               triple
                 ~prefix:(Printf.sprintf "ge|%s|%d" x j)
                 ~filter:(with_path (Predicate.Ge (x, Value.Float c)))
                 ~group_by:[])
             ths))
      f.continuous
  @ List.concat_map
      (fun k ->
        triple ~prefix:(Printf.sprintf "by|%s" k)
          ~filter:(with_path Predicate.True) ~group_by:[ k ])
      f.categorical

let scalar lookup id = Spec.scalar_result (lookup id)

let rec grow ~(params : params) ~(evaluate : evaluator) ~(path : Predicate.t)
    (f : Feature.t) (thresholds : (string * float list) list) depth : tree =
  let lookup = evaluate (node_specs ~path f thresholds) in
  let n = scalar lookup "total#n" in
  let s = scalar lookup "total#s" in
  let s2 = scalar lookup "total#s2" in
  let prediction = if n > 0.0 then s /. n else 0.0 in
  let total_sse = sse ~count:n ~sum:s ~sum2:s2 in
  let leaf () = Leaf { prediction; count = n } in
  if depth >= params.max_depth || n < params.min_samples then leaf ()
  else begin
    (* candidate splits: continuous thresholds... *)
    let candidates = ref [] in
    List.iter
      (fun x ->
        let ths = Option.value ~default:[] (List.assoc_opt x thresholds) in
        List.iteri
          (fun j c ->
            let prefix = Printf.sprintf "ge|%s|%d" x j in
            let ln = scalar lookup (prefix ^ "#n") in
            let ls = scalar lookup (prefix ^ "#s") in
            let ls2 = scalar lookup (prefix ^ "#s2") in
            let rn = n -. ln and rs = s -. ls and rs2 = s2 -. ls2 in
            if ln > 0.0 && rn > 0.0 then begin
              let gain =
                total_sse -. sse ~count:ln ~sum:ls ~sum2:ls2
                -. sse ~count:rn ~sum:rs ~sum2:rs2
              in
              candidates := (gain, Threshold (x, c), (ln, ls, ls2), (rn, rs, rs2)) :: !candidates
            end)
          ths)
      f.continuous;
    (* ...and categorical one-vs-rest splits from the grouped triples *)
    List.iter
      (fun k ->
        let prefix = Printf.sprintf "by|%s" k in
        let counts = lookup (prefix ^ "#n") in
        let sums = lookup (prefix ^ "#s") in
        let sums2 = lookup (prefix ^ "#s2") in
        List.iter
          (fun (assignment, ln) ->
            match assignment with
            | [ (_, v) ] ->
                let ls = Spec.lookup sums assignment in
                let ls2 = Spec.lookup sums2 assignment in
                let rn = n -. ln and rs = s -. ls and rs2 = s2 -. ls2 in
                if ln > 0.0 && rn > 0.0 then begin
                  let gain =
                    total_sse -. sse ~count:ln ~sum:ls ~sum2:ls2
                    -. sse ~count:rn ~sum:rs ~sum2:rs2
                  in
                  candidates :=
                    (gain, Category (k, v), (ln, ls, ls2), (rn, rs, rs2)) :: !candidates
                end
            | _ -> ())
          counts)
      f.categorical;
    (* deterministic best: highest gain, ties by split description *)
    let describe = function
      | Threshold (x, c) -> Printf.sprintf "t|%s|%g" x c
      | Category (k, v) -> Printf.sprintf "c|%s|%s" k (Value.to_string v)
    in
    match
      List.sort
        (fun (g1, s1, _, _) (g2, s2, _, _) ->
          match compare g2 g1 with 0 -> compare (describe s1) (describe s2) | c -> c)
        !candidates
    with
    | (gain, split, _, _) :: _ when gain > params.min_gain ->
        let left_pred, right_pred =
          match split with
          | Threshold (x, c) ->
              (Predicate.Ge (x, Value.Float c), Predicate.Lt (x, Value.Float c))
          | Category (k, v) -> (Predicate.Eq (k, v), Predicate.Not (Predicate.Eq (k, v)))
        in
        let extend p =
          match path with Predicate.True -> p | _ -> Predicate.And (path, p)
        in
        let left =
          grow ~params ~evaluate ~path:(extend left_pred) f thresholds (depth + 1)
        in
        let right =
          grow ~params ~evaluate ~path:(extend right_pred) f thresholds (depth + 1)
        in
        Node { split; left; right; count = n }
    | _ -> leaf ()
  end

let thresholds_of_db (db : Database.t) (f : Feature.t) =
  List.map
    (fun x -> (x, Aggregates.Batch.thresholds_for db x f.thresholds_per_feature))
    f.continuous

(* Structure-aware training: one LMFAO batch per tree node. *)
let train ?(params = default_params) ?(engine_options = Lmfao.Engine.default_options)
    (db : Database.t) (f : Feature.t) : tree =
  let thresholds = thresholds_of_db db f in
  let evaluate specs =
    let batch = { Aggregates.Batch.name = "tree-node"; aggregates = specs } in
    let table = Lazy.force (Lmfao.Engine.eval ~options:engine_options db batch).table in
    fun id ->
      match Hashtbl.find_opt table id with
      | Some r -> r
      | None -> invalid_arg ("Decision_tree: missing aggregate " ^ id)
  in
  grow ~params ~evaluate ~path:Predicate.True f thresholds 0

(* Structure-agnostic training over a materialised data matrix, same specs
   evaluated by scans — the reference implementation. *)
let train_flat ?(params = default_params) (join : Relation.t) (f : Feature.t)
    ~(thresholds : (string * float list) list) : tree =
  let evaluate specs =
    let results =
      List.map (fun spec -> (spec.Spec.id, Spec.eval_flat join spec)) specs
    in
    fun id ->
      match List.assoc_opt id results with
      | Some r -> r
      | None -> invalid_arg ("Decision_tree: missing aggregate " ^ id)
  in
  grow ~params ~evaluate ~path:Predicate.True f thresholds 0

(* Bitwise equality: the same splits (categories equal as values,
   thresholds by bit pattern), counts and predictions at every node. *)
let rec equal_bits a b =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  match (a, b) with
  | Leaf a, Leaf b -> same a.prediction b.prediction && same a.count b.count
  | Node a, Node b ->
      (match (a.split, b.split) with
      | Threshold (x, c), Threshold (y, d) -> String.equal x y && same c d
      | Category (k, v), Category (l, w) -> String.equal k l && Value.equal v w
      | _ -> false)
      && same a.count b.count && equal_bits a.left b.left && equal_bits a.right b.right
  | _ -> false

let rec predict tree (get : string -> Value.t) =
  match tree with
  | Leaf { prediction; _ } -> prediction
  | Node { split; left; right; _ } ->
      let goes_left =
        match split with
        | Threshold (x, c) -> Value.to_float (get x) >= c
        | Category (k, v) -> Value.equal (get k) v
      in
      predict (if goes_left then left else right) get

let rmse_on tree (rel : Relation.t) ~response =
  let schema = Relation.schema rel in
  let n = Relation.cardinality rel in
  if n = 0 then 0.0
  else begin
    let col_of = Hashtbl.create 16 in
    List.iter
      (fun (a : Schema.attr) ->
        Hashtbl.replace col_of a.name
          (Relation.column rel (Schema.position schema a.name)))
      (Schema.attrs schema);
    let row = ref 0 in
    let get a = Column.get (Hashtbl.find col_of a) !row in
    let se = ref 0.0 in
    for i = 0 to n - 1 do
      row := i;
      let err = predict tree get -. Value.to_float (get response) in
      se := !se +. (err *. err)
    done;
    sqrt (!se /. float_of_int n)
  end

let rec depth = function
  | Leaf _ -> 0
  | Node { left; right; _ } -> 1 + Stdlib.max (depth left) (depth right)

let rec size = function
  | Leaf _ -> 1
  | Node { left; right; _ } -> 1 + size left + size right

let rec pp ?(indent = 0) ppf tree =
  let pad = String.make (indent * 2) ' ' in
  match tree with
  | Leaf { prediction; count } ->
      Format.fprintf ppf "%spredict %.3f (n=%g)@\n" pad prediction count
  | Node { split; left; right; count } ->
      (match split with
      | Threshold (x, c) -> Format.fprintf ppf "%s%s >= %g? (n=%g)@\n" pad x c count
      | Category (k, v) ->
          Format.fprintf ppf "%s%s = %s? (n=%g)@\n" pad k (Value.to_string v) count);
      pp ~indent:(indent + 1) ppf left;
      pp ~indent:(indent + 1) ppf right
