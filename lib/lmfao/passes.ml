(* Stage 2: optimisation passes over the physical IR.

   Each pass is a total [Ir.rooted -> Ir.rooted] function that preserves
   results BITWISE — the qcheck stage-equivalence suite executes every
   intermediate plan and compares against the unoptimised one. The passes
   reuse the transformation vocabulary of [Ifaq.Rewrite] on the physical
   form: [fuse_filters] is predicate fusion (push_into_sums / factor_out
   applied to guards) and [hoist_loads] is loop-invariant code motion for
   column reads. Sharing is decided earlier, by the planner's per-node
   dedup of canonical partials.

   Bitwise preservation constrains what a pass may do:

   - [fuse_filters] may hoist a conjunct to the scan level only when EVERY
     slot tests it, and the hoisted test guards the slot kernels ONLY —
     never the view insertion. The executor inserts a row's join key into
     the view BEFORE evaluating any slot filter, so an all-filters-false
     row still creates a zero row, which a parent row then finds.
   - [hoist_loads] only moves column reads, never arithmetic: a hoisted
     value is the same float the term product would have read. *)

let c_fused = Obs.counter "lmfao.compile.filters_fused"
let c_hoisted = Obs.counter "lmfao.compile.hoisted_loads"

(* ---------- predicate fusion ---------- *)

(* Hoist filter conjuncts shared by EVERY slot of a node into the node's
   scan filter, so they are tested once per row instead of once per slot.
   Purely common-subexpression elimination: the scan filter gates the slot
   kernels, not the key insertion (see the bitwise note above). *)
let fuse_filters (r : Ir.rooted) : Ir.rooted =
  let rec go (node : Ir.node) : Ir.node =
    let node = { node with Ir.n_children = Array.map go node.Ir.n_children } in
    match Array.to_list node.Ir.n_slots with
    | [] -> node
    | first :: rest ->
        let common =
          List.filter
            (fun c ->
              List.for_all (fun (s : Ir.slot) -> List.mem c s.Ir.s_filters) rest)
            (List.sort_uniq compare first.Ir.s_filters)
        in
        if common = [] then node
        else begin
          Obs.add c_fused (List.length common);
          let strip (s : Ir.slot) =
            {
              s with
              Ir.s_filters =
                List.filter (fun c -> not (List.mem c common)) s.Ir.s_filters;
            }
          in
          {
            node with
            Ir.n_scan_filters = node.Ir.n_scan_filters @ common;
            n_slots = Array.map strip node.Ir.n_slots;
          }
        end
  in
  { r with Ir.r_node = go r.Ir.r_node }

(* ---------- loop-invariant load hoisting ---------- *)

(* Mark columns whose value at least two slot kernels read, so the
   executor loads them once per row into an unboxed buffer instead of
   re-dispatching per kernel. Only reads move; arithmetic stays in the
   kernels, so accumulation order is untouched. *)
let hoist_loads (r : Ir.rooted) : Ir.rooted =
  let rec go (node : Ir.node) : Ir.node =
    let uses = Hashtbl.create 8 in
    Array.iter
      (fun (s : Ir.slot) ->
        Array.iter
          (fun (t : Ir.term) ->
            Hashtbl.replace uses t.Ir.t_pos
              (1 + Option.value ~default:0 (Hashtbl.find_opt uses t.Ir.t_pos)))
          s.Ir.s_terms)
      node.Ir.n_slots;
    let hoisted =
      Hashtbl.fold (fun pos n acc -> if n >= 2 then pos :: acc else acc) uses []
    in
    let hoisted = Array.of_list (List.sort compare hoisted) in
    Obs.add c_hoisted (Array.length hoisted);
    {
      node with
      Ir.n_hoisted = hoisted;
      n_children = Array.map go node.Ir.n_children;
    }
  in
  { r with Ir.r_node = go r.Ir.r_node }

(* ---------- the pipeline ---------- *)

let all = [ ("fuse-filters", fuse_filters); ("hoist-loads", hoist_loads) ]
let pipeline (r : Ir.rooted) = List.fold_left (fun r (_, pass) -> pass r) r all
