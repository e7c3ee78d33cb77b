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

val restore : dir:string -> make:(unit -> Maintainer.t) -> restored option * int
(** Restore from the newest valid checkpoint ([make] supplies empty
    maintainers of the expected strategy). A checkpoint fits only a
    maintainer of its strategy whose {!Fivm.Maintainer.features} are its
    feature names in the same order. Returns the restored state (or [None]
    if no valid checkpoint exists) and the number of corrupt or mismatched
    checkpoints skipped; a file of another format version is corrupt. *)

val list : string -> (int * string) list
(** (seq, path) of the checkpoints in a directory, newest first. *)

val flip_bit_newest : string -> unit
(** Damage injection: flip one bit in the newest checkpoint file. *)
