(** The three maintenance strategies of Figure 4 (right), all keeping the
    covariance-matrix batch fresh under tuple updates:

    - F-IVM: one view tree with covariance-ring payloads — one delta
      propagation per update maintains the whole batch;
    - higher-order IVM: one scalar view tree per aggregate;
    - first-order IVM: no views; per aggregate, each update re-evaluates its
      delta query against the base relations. *)

open Relational

type strategy = F_ivm | Higher_order | First_order

val strategy_name : strategy -> string

type t

val create : strategy -> Database.t -> features:string list -> t
(** Maintenance state over an initially EMPTY database with the given
    schemas; [features] are the numeric attributes of the covariance task. *)

val apply : t -> Delta.update -> unit
(** Process one update (views first, then base storage). Maintains the
    [fivm.updates] / [fivm.delta_tuples] counters when {!Obs} is enabled. *)

val apply_batch : t -> Delta.update list -> unit
(** Process a delta batch inside an [fivm.batch:<strategy>] span, then
    refresh the [fivm.view_rows] / [fivm.storage_tuples] gauges once. *)

val view_rows : t -> int
(** Total rows across all maintained views (0 for first-order, which keeps
    none). *)

val entry_floats : t -> (string * int list) list
(** F-IVM: per view-tree node, the distinct float counts of its view
    entries, each [1 + d + d²] for the [d] features owned in the node's
    subtree; [[]] for the other strategies (diagnostics). *)

val covariance : t -> Rings.Covariance.t
(** The maintained covariance triple. *)

val storage : t -> Storage.t

val snapshot : t -> Database.t
(** The current contents as a fresh [Database.t]: empty clones of the
    schema relations, filled after [Database.create] with the storage's
    rows copied out as exact-size columns ({!Storage.columns}), in
    insertion order, so downstream float accumulation is deterministic for
    a given stream. This
    is the moment-assembly input for model refreshers that need aggregates
    beyond the maintained covariance triple (degree-4 monomials, data
    passes). *)

val features : t -> string list
(** The numeric features of the covariance task, in the order given to
    {!create} (= the index order of {!covariance}'s vector and matrix). *)

val strategy_of : t -> strategy

val recompute : t -> Rings.Covariance.t
(** From-scratch recomputation over the current contents (test oracle). *)

(** {2 Checkpoint hooks (used by {!Resilience})} *)

type view_dump =
  | Cov_views of (string * (Keypack.key * Rings.Covariance.t) list) list
      (** F-IVM: per-node covariance-ring view contents. *)
  | Float_views of (string * (Keypack.key * float) list) list array
      (** Higher-order: per-aggregate per-node scalar view contents. *)
  | Totals of float array  (** First-order: running aggregate totals. *)

val dump_views : t -> view_dump
(** The EXACT accumulated view payloads of the maintained state; restoring a
    dump into a maintainer whose storage holds the same contents reproduces
    the state bit-identically (recomputation would re-associate float
    additions). *)

val dump_fits : t -> view_dump -> bool
(** Whether the dump has this maintainer's shape: its strategy, and every
    triple's dimension, the tree count or the totals length. *)

val restore_views : t -> view_dump -> unit
(** Replace the maintained view state with a copy of a dump.
    @raise Invalid_argument unless {!dump_fits}. *)

val perturb : t -> float -> unit
(** Fault-injection hook: corrupt the maintained view state in place (base
    storage untouched) so that an audit against {!recompute} detects
    divergence. No-op on empty state. *)
