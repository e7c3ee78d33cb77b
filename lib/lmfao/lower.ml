(* Stage 1: lower a logical [Plan] into the typed physical IR.

   Lowering is a mechanical translation — every decision with a
   cost-model flavour (root choice, restriction, sharing, ownership) has
   already been made by the planner, and every optimisation on the
   physical form (filter fusion) belongs to [Passes]. *)

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

let view (v : Plan.view) : Ir.view =
  let schema = Relation.schema v.Plan.v_rel in
  let cols = Relation.columns v.Plan.v_rel in
  {
    Ir.v_rel = Relation.name v.Plan.v_rel;
    v_key = v.Plan.v_key;
    v_children = v.Plan.v_children;
    v_child_keys = v.Plan.v_child_keys;
    v_scan_filters = [];
    v_slots = Array.map (slot schema cols) v.Plan.v_slots;
  }

let grouped (g : Plan.grouped) : Ir.grouped =
  {
    Ir.g_views = Array.map view g.Plan.views;
    g_scans =
      Array.of_list
        (List.map (fun (rel, views) -> { Ir.sc_rel = rel; sc_views = views }) g.Plan.scans);
    g_outputs =
      Array.of_list
        (List.map
           (fun ((s : Aggregates.Spec.t), v, slot) -> (s.id, v, slot))
           g.Plan.outputs);
  }
