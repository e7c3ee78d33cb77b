(** Planning for LMFAO: the planner decides WHAT each view computes —
    multi-root assignment (each aggregate at the smallest relation holding
    one of its attributes), top-down restriction of every aggregate over the
    join tree, per-node dedup of identical partials, the merge of every
    root's views into directed views, the conjuncts each view tests once
    per row, and the order in which view groups are scanned, the largest
    edge's four scans as one merged step. Its
    {!grouped} output is the plan {!Exec} runs, as pure data: named
    relations, first-order filter conjuncts, (position, power) terms,
    explicit child-slot wiring. *)

open Relational
module Spec = Aggregates.Spec
module Batch = Aggregates.Batch

exception Unsupported of string
(** Raised for filters that do not decompose per attribute. *)

type options = {
  share : bool;  (** dedup identical partial aggregates *)
  multi_root : bool;
      (** per-aggregate root choice by {!choose_root}; off, every
          aggregate roots at the largest relation *)
}

val default_options : options
(** [{ share = true; multi_root = true }]. *)

type stats = {
  mutable views : int;
  mutable partials : int;
  mutable shared_away : int;
}

val fresh_stats : unit -> stats

(** One partial aggregate computed at a node. *)
type slot = {
  local_terms : (int * int) array;  (** (position, power) over owned attrs *)
  local_groups : (string * int) array;  (** owned group-by attrs *)
  local_filter : Predicate.t list;  (** owned filter conjuncts *)
  child_slots : int array;  (** per child: slot in the child's plan *)
  scalar : bool;  (** no group-by anywhere in the subtree *)
}

type node = {
  rel : Relation.t;
  key_positions : int array;  (** this node's join key with its parent *)
  child_keys : int array array;
      (** per child: child-key positions in OUR schema *)
  slots : slot array;
  slot_keys : string array;
      (** per slot: canonical form (sharing on) or aggregate id (off) *)
  slot_index : (string, int) Hashtbl.t;  (** slot key -> index into [slots] *)
  children : node list;
}

type rooted = {
  root : string;
  tree : node;
  requests : (Spec.t * string) list;
      (** each requested aggregate with its root slot key, in batch order *)
}

val choose_root : Join_tree.t -> default_root:string -> Spec.t -> string
(** The root rule: an aggregate roots at the smallest relation whose schema
    holds one of its group-by attributes or terms, and a count, which has
    neither, at the smallest relation. Ties go first to a relation holding
    a group-by attribute, then to the owner (first holder in join-tree
    order) of the earliest attribute, sorted group-by attributes before
    terms, then to join-tree order. A grouped aggregate whose term lives in
    a smaller relation than its group-by attributes thus roots there, and
    its group key is pushed down the join tree. [default_root] answers an
    aggregate none of whose attributes any relation holds. Applied to a
    join tree, it indexes each attribute's holders once. *)

val group_by_root :
  options -> Database.t -> Batch.t -> Join_tree.t * (string * Spec.t list) list
(** Group the batch's aggregates by their chosen root (batch order
    preserved within and across groups), together with the join tree.
    @raise Join_tree.Cyclic on cyclic schemas. *)

val build : options -> stats:stats -> Join_tree.t -> root:string ->
  Spec.t list -> rooted
(** Build the rooted logical plan for one group of aggregates, adding its
    per-root node and slot counts to [stats].
    @raise Unsupported on non-decomposable filters *)

(** One directed view of a merged plan: relation [v_rel] toward a
    neighbour, or [v_rel]'s root view. *)
type view = {
  v_rel : string;  (** resolved against the live database at run time *)
  v_key : int array;  (** join-key positions with the neighbour; [[||]] at a root *)
  v_children : int array;
      (** per child (the sorted neighbours but the one the view is toward):
          the index of its view toward [v_rel] *)
  v_child_keys : int array array;  (** per child: child-key positions here *)
  v_scan_filter : Predicate.t list;
      (** the conjuncts every slot tests, hoisted out of their
          [local_filter]s: they gate the slots, never the key insert *)
  v_slots : slot array;  (** [child_slots] index the children's [v_slots] *)
  v_families : int array array;
      (** the grouped slots in families, each family's members in slot
          order: slots with the same local group columns, the same local
          filter and, per child, the same child family (or a scalar child
          partial), which therefore have exactly the same keys. At most
          [Flat_view.block_size] members each. *)
}

type scan = string * int array
(** One scan: a relation and the views it computes. *)

(** The largest edge's step: C, the largest relation, and N, its largest
    neighbour. {!Exec} runs it as one loop over key blocks — per block,
    the block's N rows for N->C, the C rows of the same keys for all of
    C's views, then the N rows again for N's down views — or, as one
    block, as the four scans of {!scans}. *)
type merge = {
  n_rel : string;  (** N *)
  c_rel : string;  (** C *)
  n_key : int array;  (** the edge's attributes in N's schema, in N's order *)
  c_key : int array;  (** the same attributes, in the same order, in C's schema *)
  up : int array;  (** N->C, or [[||]] when no root needs it *)
  c_views : int array;
      (** C's root view and its views toward every other neighbour *)
  c_to_n : int array;  (** C->N, or [[||]] *)
  down : int array;  (** N's root view and its views toward its children *)
}

type step = Scan of scan | Merge of merge

type grouped = {
  views : view array;  (** in schedule order: children before parents *)
  steps : step list;  (** the schedule *)
  outputs : (Spec.t * int * int) list;
      (** each requested aggregate with its root view and slot, in the
          order of the rooted plans and their requests *)
}

val scans : step -> scan list
(** A step's scans when it runs as one block: a {!Scan}'s one, a
    {!Merge}'s [(N, up); (C, c_views); (C, c_to_n); (N, down)], those with
    no view left out. *)

val group : Join_tree.t -> stats:stats -> rooted list -> grouped * stats
(** Merge the rooted plans of one batch into directed views — slots
    deduplicated by key across roots — and schedule their scans: an up
    pass toward the largest relation C, one merged step for the edge
    between C and its largest neighbour N ({!merge}), then a down pass.
    Every relation is scanned at most twice, and C once when the merged
    step runs by key blocks. Each view's [v_scan_filter] holds the
    conjuncts all of its slots test, counted in
    [lmfao.compile.filters_fused], and its [v_families] are counted in
    [lmfao.families]. [lmfao.slot_rows] adds the partial updates the plan
    implies: over its views, slots times relation rows. [stats] holds the
    rooted plans' counts (from {!build}); the result's stats count merged
    views and slots, with [shared_away] covering both per-root and
    cross-root dedup, and are added to the [lmfao.views] /
    [lmfao.partials] / [lmfao.shared_away] counters. *)
