(* The typed physical IR of the LMFAO executor (what [Lower] produces and
   [Exec] runs).

   A [rooted] tree describes one LMFAO rooted decomposition as pure data:
   which relation each view scans, the join-key columns it groups by and
   probes its children with, and per slot the term product,
   group-by columns, residual filters and child-slot wiring. Everything is
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

type node = {
  n_rel : string; (* resolved against the live database at bind time *)
  n_key : int array; (* join-key positions with the parent, packed by [Keypack] *)
  n_child_keys : int array array; (* per child: its join-key positions here *)
  n_scan_filters : filter list; (* conjuncts common to EVERY slot, hoisted *)
  n_hoisted : int array; (* columns preloaded once per row (>= 2 readers) *)
  n_slots : slot array;
  n_children : node array;
}

type rooted = {
  r_root : string;
  r_node : node;
  r_outputs : (string * int) array; (* aggregate id -> root slot index *)
}
