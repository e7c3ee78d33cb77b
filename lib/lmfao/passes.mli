(** Stage 2: optimisation passes over the physical IR. Every pass
    preserves execution results BITWISE (enforced by the qcheck
    stage-equivalence suite); see the implementation header for the
    constraints this puts on each transformation. *)

val fuse_filters : Ir.grouped -> Ir.grouped
(** Hoist filter conjuncts shared by every slot of a view into the view's
    scan filter (tested once per row). The scan filter gates the slot
    kernels only — never the view's key insertion. *)

val all : (string * (Ir.grouped -> Ir.grouped)) list
(** The pipeline stages in order, named (for the stage-equivalence
    suite). *)

val pipeline : Ir.grouped -> Ir.grouped
(** Every stage of {!all}, in order: [fuse_filters]. *)
