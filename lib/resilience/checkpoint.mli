(** Checkpoint/restore of {!Fivm.Maintainer} state: magic + one checksummed
    frame holding version, strategy, the maintainer's feature names,
    sequence number, the storage dump and the EXACT maintained view payloads
    (floats by bit pattern), written via atomic rename. Restore walks
    checkpoints newest first and skips any that fail the checksum or decode,
    so bit flips degrade to an older checkpoint instead of raising. *)

open Fivm

val write : dir:string -> seq:int -> Maintainer.t -> string
(** Write [checkpoint-<seq>.ckpt] (atomically, via a [.tmp] rename), prune
    all but the newest two, and return the path. *)

type restored = { maintainer : Maintainer.t; seq : int }

type skipped = {
  corrupt : int;  (** failed the checksum or decode; another format version too *)
  misfit : int;  (** valid, but written for another strategy or other features *)
}
(** The checkpoints passed over before the one restored. *)

val restore : dir:string -> make:(unit -> Maintainer.t) -> restored option * skipped
(** Restore from the newest valid checkpoint that fits ([make] supplies
    empty maintainers of the expected strategy). A checkpoint fits only a
    maintainer of its strategy whose {!Fivm.Maintainer.features} are its
    feature names in the same order, and whose views its dump fits.
    Returns the restored state (or [None] if no checkpoint is valid and
    fits) and the checkpoints skipped, by why. *)

val list : string -> (int * string) list
(** (seq, path) of the checkpoints in a directory, newest first. *)

val flip_bit_newest : string -> unit
(** Damage injection: flip one bit in the newest checkpoint file. *)
