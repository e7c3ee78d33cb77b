(** The typed physical IR of the LMFAO executor: one batch's directed
    views and the scans that compute them, as pure, closure-free data. Attribute names are resolved to column
    positions, column representations are recorded explicitly, and filters
    stay first-order — so passes rewrite plans as plain data, and the
    executor can emit monomorphic accessors per representation. *)

open Relational

(** Column representation observed at lowering time. The executor
    re-checks against the live [Column.data] and counts a boxed or drifted
    term column as a specialization fallback. *)
type rep = Rint | Rfloat | Rboxed

val rep_of : Column.t array -> int -> rep
(** The live representation of the column at a position. *)

(** Single-attribute filter conjuncts: [Predicate.t] with attribute names
    resolved to column positions. *)
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
  s_groups : (string * int) array;  (** owned group-by (attr, position) *)
  s_filters : filter list;  (** residual conjuncts, tested per row *)
  s_children : int array;  (** per child: slot index in that child *)
  s_scalar : bool;
}

(** One directed view: relation [v_rel] toward a neighbour, or its root
    view. *)
type view = {
  v_rel : string;  (** resolved against the live database at bind time *)
  v_key : int array;  (** join-key positions toward the neighbour; [[||]] at a root *)
  v_children : int array;  (** per child: index of its view toward us *)
  v_child_keys : int array array;  (** per child: its join-key positions here *)
  v_scan_filters : filter list;
      (** conjuncts common to EVERY slot, hoisted to the scan *)
  v_slots : slot array;
}

(** One scan of [sc_rel] that computes the views [sc_views]. *)
type scan = { sc_rel : string; sc_views : int array }

type grouped = {
  g_views : view array;  (** a view's children have smaller indexes *)
  g_scans : scan array;  (** in execution order; each view in exactly one *)
  g_outputs : (string * int * int) array;
      (** aggregate id -> root view index, slot index *)
}
