(* The aggregate language of Section 2.

   Every data-dependent quantity needed by the supported models is a
   SUM-PRODUCT aggregate over the feature-extraction query:

     SUM(X_{i1}^{p1} * ... * X_{ik}^{pk})  WHERE filter  GROUP BY Z1,...,Zm

   with continuous attributes in the product, categorical attributes in the
   group-by (the sparse-tensor encoding of one-hot interactions), and
   filters covering decision-tree thresholds/in-sets and the additive
   inequalities of Section 2.3. An empty product is COUNT. *)

open Relational

type t = {
  id : string;
  terms : (string * int) list; (* (attribute, power), sorted, powers >= 1 *)
  group_by : string list; (* sorted categorical attributes *)
  filter : Predicate.t;
}

let make ?(filter = Predicate.True) ~id ~terms ~group_by () =
  let terms =
    List.sort compare (List.filter (fun (_, p) -> p > 0) terms)
  in
  let group_by = List.sort_uniq compare group_by in
  { id; terms; group_by; filter }

let count ~id = make ~id ~terms:[] ~group_by:[] ()

let attrs t =
  List.sort_uniq compare
    (List.map fst t.terms @ t.group_by @ Predicate.attrs t.filter)

(* Canonical structural key, ignoring [id]: used to deduplicate identical
   (partial) aggregates within a batch — LMFAO's sharing. *)
let canonical t =
  let terms = String.concat "*" (List.map (fun (a, p) -> Printf.sprintf "%s^%d" a p) t.terms) in
  let groups = String.concat "," t.group_by in
  (* the trivial filter skips the Format machinery: [canonical] runs once
     per spec per node per root during LMFAO planning *)
  let filter =
    match t.filter with
    | Predicate.True -> "true"
    | f -> Format.asprintf "%a" Predicate.pp f
  in
  Printf.sprintf "S[%s|%s|%s]" terms groups filter

let is_scalar t = t.group_by = []

(* Results: grouped sums keyed by sorted (attribute, value) assignments.
   Scalar aggregates have the single key []. *)
type result = ((string * Value.t) list * float) list

let scalar_result (r : result) =
  match r with
  | [] -> 0.0
  | [ ([], v) ] -> v
  | _ -> invalid_arg "Spec.scalar_result: grouped result"

let lookup (r : result) key =
  let key = List.sort compare key in
  match List.find_opt (fun (k, _) -> k = key) r with
  | Some (_, v) -> v
  | None -> 0.0

(* Reference evaluation over a materialised data matrix: one columnar scan,
   hash group-by on packed keys. This is also what the per-aggregate
   baselines use. *)
let eval_flat rel t : result =
  let schema = Relation.schema rel in
  let cols = Relation.columns rel in
  let keep = Predicate.compile_cols schema cols t.filter in
  let term_positions =
    List.map (fun (a, p) -> (Schema.position schema a, p)) t.terms
  in
  let group_positions = List.map (fun a -> (a, Schema.position schema a)) t.group_by in
  let key_positions = Array.of_list (List.map snd group_positions) in
  let key_of = Relation.extractor rel key_positions in
  let key_arity = Array.length key_positions in
  let table : float ref Keypack.Hybrid.t = Keypack.Hybrid.create 64 in
  ignore (Relation.scan rel);
  for i = 0 to Relation.cardinality rel - 1 do
    if keep i then begin
      let v =
        List.fold_left
          (fun acc (pos, p) ->
            let x = Column.float_at cols.(pos) i in
            let rec pow acc k = if k = 0 then acc else pow (acc *. x) (k - 1) in
            pow acc p)
          1.0 term_positions
      in
      let key = key_of i in
      match Keypack.Hybrid.find_opt table key with
      | Some r -> r := !r +. v
      | None -> Keypack.Hybrid.add table key (ref v)
    end
  done;
  let names = List.map fst group_positions in
  Keypack.Hybrid.fold
    (fun key v acc ->
      let tup = Keypack.key_tuple key_arity key in
      let assignment =
        List.sort compare (List.map2 (fun n x -> (n, x)) names (Array.to_list tup))
      in
      (assignment, !v) :: acc)
    table []

let result_equal ?(eps = 1e-6) (a : result) (b : result) =
  let norm r = List.sort compare r in
  let a = norm a and b = norm b in
  List.length a = List.length b
  && List.for_all2
       (fun (ka, va) (kb, vb) ->
         ka = kb && Float.abs (va -. vb) <= eps *. (1.0 +. Float.abs va))
       a b

(* Bitwise equality, the exact counterpart of [result_equal]: the same
   groups in the same order, keys equal as values ([Int 1] is not
   [Str "1"], float keys compare exactly), sums equal by bit pattern (one
   ulp, or -0.0 against 0.0, is a difference). *)
let key_equal = List.equal (fun (x, u) (y, v) -> String.equal x y && Value.equal u v)

let result_bits_equal (a : result) (b : result) =
  List.equal
    (fun (ka, va) (kb, vb) ->
      key_equal ka kb && Int64.equal (Int64.bits_of_float va) (Int64.bits_of_float vb))
    a b

let keyed_bits_equal a b =
  List.equal (fun (i, r) (j, s) -> String.equal i j && result_bits_equal r s) a b

(* The canonical order for callers that ignore order: aggregates by id,
   groups by key (attribute name, then [Value.compare]). *)
let key_compare =
  List.compare (fun (x, u) (y, v) ->
      match String.compare x y with 0 -> Value.compare u v | c -> c)

let sort_keyed keyed =
  List.sort
    (fun (i, _) (j, _) -> String.compare i j)
    (List.map
       (fun (id, r) -> (id, List.sort (fun (k, _) (k', _) -> key_compare k k') r))
       keyed)

(* The SQL this aggregate stands for, over the feature-extraction query
   [relation] (Section 2.1: "SELECT X, agg FROM Q GROUP BY X"). *)
let to_sql ?(relation = "Q") t =
  let term_sql =
    match t.terms with
    | [] -> "1"
    | ts ->
        String.concat " * "
          (List.map
             (fun (a, p) ->
               String.concat " * " (List.init p (fun _ -> a)))
             ts)
  in
  let buf = Buffer.create 64 in
  Buffer.add_string buf "SELECT ";
  List.iter (fun g -> Buffer.add_string buf (g ^ ", ")) t.group_by;
  Buffer.add_string buf (Printf.sprintf "SUM(%s) FROM %s" term_sql relation);
  if t.filter <> Predicate.True then
    Buffer.add_string buf (" WHERE " ^ Predicate.to_sql t.filter);
  if t.group_by <> [] then
    Buffer.add_string buf (" GROUP BY " ^ String.concat ", " t.group_by);
  Buffer.add_string buf ";";
  Buffer.contents buf

let pp ppf t =
  let terms =
    match t.terms with
    | [] -> "1"
    | ts -> String.concat "*" (List.map (fun (a, p) -> if p = 1 then a else Printf.sprintf "%s^%d" a p) ts)
  in
  Format.fprintf ppf "%s: SUM(%s)" t.id terms;
  if t.filter <> Predicate.True then Format.fprintf ppf " WHERE %a" Predicate.pp t.filter;
  if t.group_by <> [] then
    Format.fprintf ppf " GROUP BY %s" (String.concat "," t.group_by)
