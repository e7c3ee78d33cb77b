(* The typed physical IR of the LMFAO executor (what [Lower] produces and
   [Exec] runs).

   A [grouped] plan describes one batch as pure data: its directed views
   and the scans that compute them, each scan one relation and the views
   it feeds. Per view: the join-key columns it groups by and probes its
   children with, and per slot the term product, group-by columns,
   residual filters and child-slot wiring. Everything is
   resolved to column positions and annotated with the column
   representation observed at lowering time, so the executor can emit
   monomorphic accessors and count any representation drift as an explicit
   specialization fallback.

   The IR is first-order and closure-free on purpose: passes rewrite it as
   plain data, and plans can be cached across executions. *)

open Relational

(* Column representation as observed when the plan was lowered. The
   executor re-checks against the live [Column.data] and counts a boxed or
   drifted term column in [lmfao.compile.fallbacks] (e.g. a column
   promoted by later deltas). *)
type rep = Rint | Rfloat | Rboxed

let rep_of (cols : Column.t array) pos =
  match Column.data cols.(pos) with
  | Column.Ints _ -> Rint
  | Column.Floats _ -> Rfloat
  | Column.Boxed _ -> Rboxed

(* Single-attribute filter conjuncts, mirroring [Predicate.t] with
   attribute names resolved to column positions. Compiled against the
   live column representation exactly like [Predicate.compile_cols]. *)
type filter =
  | FTrue
  | FGe of int * Value.t
  | FLt of int * Value.t
  | FEq of int * Value.t
  | FIn of int * Value.t list
  | FNot of filter
  | FAnd of filter * filter
  | FOr of filter * filter
  | FAdditive of (int * float) list * float

type term = { t_pos : int; t_power : int; t_rep : rep }

type slot = {
  s_terms : term array;
  s_groups : (string * int) array; (* owned group-by (attr, position) *)
  s_filters : filter list; (* residual conjuncts, tested per row *)
  s_children : int array; (* per child: slot index in that child *)
  s_scalar : bool;
}

(* One directed view: relation [v_rel] toward a neighbour, or its root
   view ([v_key = [||]], the single empty key). *)
type view = {
  v_rel : string; (* resolved against the live database at bind time *)
  v_key : int array; (* join-key positions toward the neighbour, packed by [Keypack] *)
  v_children : int array; (* per child: index of its view toward us in [g_views] *)
  v_child_keys : int array array; (* per child: its join-key positions here *)
  v_scan_filters : filter list; (* conjuncts common to EVERY slot, hoisted *)
  v_slots : slot array;
}

(* One scan of [sc_rel] computing the views [sc_views] at once. *)
type scan = { sc_rel : string; sc_views : int array }

type grouped = {
  g_views : view array; (* a view's children have smaller indexes *)
  g_scans : scan array; (* in execution order *)
  g_outputs : (string * int * int) array; (* aggregate id -> root view, slot *)
}
