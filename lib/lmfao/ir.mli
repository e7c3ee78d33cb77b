(** The typed physical IR of the LMFAO executor: one rooted decomposition
    as pure, closure-free data. Attribute names are resolved to column
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

type node = {
  n_rel : string;  (** resolved against the live database at bind time *)
  n_key : int array;  (** join-key positions with the parent *)
  n_child_keys : int array array;  (** per child: its join-key positions here *)
  n_scan_filters : filter list;
      (** conjuncts common to EVERY slot, hoisted to the scan *)
  n_hoisted : int array;  (** columns preloaded once per row *)
  n_slots : slot array;
  n_children : node array;
}

type rooted = {
  r_root : string;
  r_node : node;
  r_outputs : (string * int) array;  (** aggregate id -> root slot index *)
}
