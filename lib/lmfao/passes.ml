(* Stage 2: optimisation passes over the physical IR.

   Each pass is a total [Ir.grouped -> Ir.grouped] function, applied view
   by view, that preserves results BITWISE — the qcheck stage-equivalence suite executes every
   intermediate plan and compares against the unoptimised one. The passes
   reuse the transformation vocabulary of [Ifaq.Rewrite] on the physical
   form: [fuse_filters] is predicate fusion (push_into_sums / factor_out
   applied to guards) and [hoist_loads] is loop-invariant code motion for
   column reads. Sharing is decided earlier, by the planner's dedup of
   canonical partials per directed view.

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

(* Hoist filter conjuncts shared by EVERY slot of a view into the view's
   scan filter, so they are tested once per row instead of once per slot.
   Purely common-subexpression elimination: the scan filter gates the slot
   kernels, not the key insertion (see the bitwise note above). *)
let fuse_filters (g : Ir.grouped) : Ir.grouped =
  let go (view : Ir.view) : Ir.view =
    match Array.to_list view.Ir.v_slots with
    | [] -> view
    | first :: rest ->
        let common =
          List.filter
            (fun c ->
              List.for_all (fun (s : Ir.slot) -> List.mem c s.Ir.s_filters) rest)
            (List.sort_uniq compare first.Ir.s_filters)
        in
        if common = [] then view
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
            view with
            Ir.v_scan_filters = view.Ir.v_scan_filters @ common;
            v_slots = Array.map strip view.Ir.v_slots;
          }
        end
  in
  { g with Ir.g_views = Array.map go g.Ir.g_views }

(* ---------- loop-invariant load hoisting ---------- *)

(* Mark columns whose value at least two slot kernels read, so the
   executor loads them once per row into an unboxed buffer instead of
   re-dispatching per kernel. Only reads move; arithmetic stays in the
   kernels, so accumulation order is untouched. *)
let hoist_loads (g : Ir.grouped) : Ir.grouped =
  let go (view : Ir.view) : Ir.view =
    let uses = Hashtbl.create 8 in
    Array.iter
      (fun (s : Ir.slot) ->
        Array.iter
          (fun (t : Ir.term) ->
            Hashtbl.replace uses t.Ir.t_pos
              (1 + Option.value ~default:0 (Hashtbl.find_opt uses t.Ir.t_pos)))
          s.Ir.s_terms)
      view.Ir.v_slots;
    let hoisted =
      Hashtbl.fold (fun pos n acc -> if n >= 2 then pos :: acc else acc) uses []
    in
    let hoisted = Array.of_list (List.sort compare hoisted) in
    Obs.add c_hoisted (Array.length hoisted);
    { view with Ir.v_hoisted = hoisted }
  in
  { g with Ir.g_views = Array.map go g.Ir.g_views }

(* ---------- the pipeline ---------- *)

let all = [ ("fuse-filters", fuse_filters); ("hoist-loads", hoist_loads) ]
let pipeline (g : Ir.grouped) = List.fold_left (fun g (_, pass) -> pass g) g all
