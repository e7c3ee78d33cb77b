(** Stage 1: mechanical lowering of a logical {!Plan} into the typed
    physical IR. No optimisation happens here — filter fusion is a
    {!Passes} pass. *)

open Relational

val filter : Schema.t -> Predicate.t -> Ir.filter
(** Resolve a first-order predicate's attributes to column positions. *)

val grouped : Plan.grouped -> Ir.grouped
(** Lower a batch's merged plan, view by view. Column representations are
    recorded from the relations' current state; the executor re-validates
    them. *)
