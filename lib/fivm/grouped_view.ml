(* Incremental maintenance of GROUP BY aggregates.

   F-IVM's payload-ring design is not limited to the covariance triple: the
   k-relation semiring (maps from group-by assignments to sums, the sparse
   one-hot encoding of Section 2.1) is a ring too, so the same view-tree
   delta propagation keeps SUM(product of terms) GROUP BY attrs fresh under
   tuple updates. This is how the categorical slices of the covariance
   matrix stay maintained alongside the continuous triple. *)

open Relational
module GF = Factorized.Faggregate.Grouped_float
module Spec = Aggregates.Spec

(* the k-relation ring as an in-place IVM payload: a buffer is a cell
   holding a persistent map, and integer scaling is pointwise *)
module P = struct
  type t = { mutable m : GF.t }
  type shape = unit
  type product = unit

  let union () () = ()
  let zero () = { m = GF.zero }
  let product () () = ()
  let mul_into () a b ~into = into.m <- GF.mul a.m b.m
  let add_into x ~into = into.m <- GF.add into.m x.m
  let scale k x = x.m <- GF.KMap.map (fun v -> float_of_int k *. v) x.m
  let is_zero x = GF.KMap.for_all (fun _ v -> v = 0.0) x.m
  let copy x ~into = into.m <- x.m
end

module Tree = View_tree.Make (P)

type t = {
  storage : Storage.t;
  tree : Tree.t;
  spec : Spec.t; (* the maintained aggregate (scalar or grouped) *)
}

(* Each attribute is owned by its first relation (database order), exactly
   as in [Cov_task]; a tuple's lift is the singleton k-relation over its
   owned group-by attributes annotated with its owned term product. *)
let create (db : Database.t) (spec : Spec.t) : t =
  if spec.filter <> Predicate.True then
    invalid_arg "Grouped_view.create: filtered aggregates are not maintained";
  let owner = Hashtbl.create 8 in
  List.iter
    (fun attr ->
      match
        List.find_opt (fun r -> Schema.mem (Relation.schema r) attr) (Database.relations db)
      with
      | Some r -> Hashtbl.replace owner attr (Relation.name r)
      | None -> invalid_arg ("Grouped_view.create: unknown attribute " ^ attr))
    (Spec.attrs spec);
  let storage = Storage.create db in
  let lift node =
    let rel_name = Storage.name node and cells = Storage.cells node in
    let schema = Relation.schema (Database.relation db rel_name) in
    let my_terms =
      List.filter_map
        (fun (a, p) ->
          if Hashtbl.find_opt owner a = Some rel_name then
            Some (Schema.position schema a, p)
          else None)
        spec.terms
    in
    let my_groups =
      List.filter_map
        (fun a ->
          if Hashtbl.find_opt owner a = Some rel_name then
            Some (a, Schema.position schema a)
          else None)
        spec.group_by
    in
    fun r ~(into : P.t) ->
      let weight =
        List.fold_left
          (fun acc (pos, p) ->
            let x = Column.float_at cells.(pos) r in
            let rec pow acc k = if k = 0 then acc else pow (acc *. x) (k - 1) in
            pow acc p)
          1.0 my_terms
      in
      let assignment =
        List.sort compare (List.map (fun (a, pos) -> (a, Column.get cells.(pos) r)) my_groups)
      in
      into.m <- GF.KMap.singleton assignment weight
  in
  let tree = Tree.create storage ~lift:(fun node -> ((), lift node)) in
  { storage; tree; spec }

let apply (t : t) (u : Delta.update) =
  let n = Storage.node t.storage u.relation in
  let r = Storage.stage n u.tuple in
  Tree.delta t.tree n r u.multiplicity;
  Storage.apply_staged t.storage n u.multiplicity

let result (t : t) : Spec.result =
  List.filter (fun (_, v) -> Float.abs v > 0.0) (GF.bindings (Tree.result t.tree).m)

let recompute (t : t) : Spec.result =
  List.filter (fun (_, v) -> Float.abs v > 0.0) (GF.bindings (Tree.recompute t.tree).m)
