(** Typed columns backing {!Relation}: unboxed [int array] / [float array]
    storage with dynamic promotion to boxed values, so columnar relations
    are observationally identical to the old array-of-tuples row store. *)

type data =
  | Ints of int array  (** dictionary-encoded categoricals / keys *)
  | Floats of float array  (** continuous features (flat float array) *)
  | Boxed of Value.t array  (** strings, nulls, mixed columns *)

type t = private { mutable data : data }
(** [data] is the backing array, readable in place: a loop that must not
    call across modules (see {!Keypack}) reads the field directly. *)

val create : Value.ty -> int -> t
(** [create ty capacity]: initial representation per the declared type. *)

val of_ints : int array -> t
(** Wrap a freshly built int array as a column (ownership transfers). *)

val of_floats : float array -> t
val of_boxed : Value.t array -> t

val data : t -> data
(** The backing array. Cells at indexes beyond the owning relation's
    cardinality are unspecified; hot loops must bound by it. The
    representation is stable while no value is stored, so it may be matched
    once per scan. *)

val capacity : t -> int

val get : t -> int -> Value.t
(** Box one cell (edge paths: CSV, pretty-printing, compat shims). *)

val float_at : t -> int -> float
(** Cell as a float, with {!Value.to_float} semantics. *)

val int_at : t -> int -> int
(** Cell as an int, with {!Value.to_int} semantics. *)

val set : t -> int -> Value.t -> unit
(** Store a value, promoting the column to [Boxed] if it does not fit the
    current representation. *)

val copy_cell : src:t -> src_i:int -> dst:t -> dst_i:int -> unit
(** Unboxed cell copy when representations agree; falls back to
    [set dst (get src)]. *)

val grow : t -> int -> unit
val sub : t -> int -> t

val scatter : t -> int array -> int -> unit
(** [scatter t dest n] moves cell [i] to [dest.(i)] for every [i < n];
    [dest] must permute [\[0, n)]. The column keeps its capacity. *)
