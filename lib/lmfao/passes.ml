(* Stage 2: optimisation passes over the physical IR.

   Each pass is a total [Ir.grouped -> Ir.grouped] function, applied view
   by view, that preserves results BITWISE — the qcheck stage-equivalence suite executes every
   intermediate plan and compares against the unoptimised one. The one
   pass reuses the transformation vocabulary of [Ifaq.Rewrite] on the
   physical form: [fuse_filters] is predicate fusion (push_into_sums /
   factor_out applied to guards). Sharing is decided earlier, by the
   planner's dedup of canonical partials per directed view.

   Bitwise preservation constrains what a pass may do: [fuse_filters] may
   hoist a conjunct to the scan level only when EVERY slot tests it, and
   the hoisted test guards the slot kernels ONLY — never the view
   insertion. The executor inserts a row's join key into the view BEFORE
   evaluating any slot filter, so an all-filters-false row still creates
   a zero row, which a parent row then finds. *)

let c_fused = Obs.counter "lmfao.compile.filters_fused"

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

(* ---------- the pipeline ---------- *)

let all = [ ("fuse-filters", fuse_filters) ]
let pipeline (g : Ir.grouped) = List.fold_left (fun g (_, pass) -> pass g) g all
