(* Stage 1: lower a logical [Plan] into the typed physical IR.

   Lowering is a mechanical translation — every decision with a
   cost-model flavour (root choice, restriction, sharing, ownership) has
   already been made by the planner, and every optimisation on the
   physical form (filter fusion, load hoisting) belongs to [Passes]. *)

open Relational

let rec filter schema (p : Predicate.t) : Ir.filter =
  let pos = Schema.position schema in
  match p with
  | Predicate.True -> Ir.FTrue
  | Predicate.Ge (a, c) -> Ir.FGe (pos a, c)
  | Predicate.Lt (a, c) -> Ir.FLt (pos a, c)
  | Predicate.Eq (a, c) -> Ir.FEq (pos a, c)
  | Predicate.In (a, cs) -> Ir.FIn (pos a, cs)
  | Predicate.Not p -> Ir.FNot (filter schema p)
  | Predicate.And (p, q) -> Ir.FAnd (filter schema p, filter schema q)
  | Predicate.Or (p, q) -> Ir.FOr (filter schema p, filter schema q)
  | Predicate.Additive_ineq (ts, c) ->
      Ir.FAdditive (List.map (fun (a, w) -> (pos a, w)) ts, c)

let slot schema cols (s : Plan.slot) : Ir.slot =
  {
    Ir.s_terms =
      Array.map
        (fun (pos, power) ->
          { Ir.t_pos = pos; t_power = power; t_rep = Ir.rep_of cols pos })
        s.Plan.local_terms;
    s_groups = s.Plan.local_groups;
    s_filters = List.map (filter schema) s.Plan.local_filter;
    s_children = s.Plan.child_slots;
    s_scalar = s.Plan.scalar;
  }

let rec node (p : Plan.node) : Ir.node =
  let schema = Relation.schema p.Plan.rel in
  let cols = Relation.columns p.Plan.rel in
  {
    Ir.n_rel = Relation.name p.Plan.rel;
    n_key = p.Plan.key_positions;
    n_child_keys = p.Plan.child_keys;
    n_scan_filters = [];
    n_hoisted = [||];
    n_slots = Array.map (slot schema cols) p.Plan.slots;
    n_children = Array.of_list (List.map node p.Plan.children);
  }

let rooted (r : Plan.rooted) : Ir.rooted =
  {
    Ir.r_root = r.Plan.root;
    r_node = node r.Plan.tree;
    r_outputs =
      Array.of_list
        (List.map
           (fun ((s : Aggregates.Spec.t), key) ->
             match Hashtbl.find_opt r.Plan.tree.Plan.slot_index key with
             | Some i -> (s.id, i)
             | None -> failwith "Lower.rooted: lost root slot")
           r.Plan.requests);
  }
