(** Structured filter predicates, inspectable by the aggregate engines.

    [Additive_ineq] is the additive-inequality theta-join condition of the
    paper's Section 2.3 (sub-gradients of non-polynomial loss functions). *)

type t =
  | True
  | Ge of string * Value.t  (** attribute >= constant *)
  | Lt of string * Value.t  (** attribute < constant *)
  | Eq of string * Value.t
  | In of string * Value.t list
  | Not of t
  | And of t * t
  | Or of t * t
  | Additive_ineq of (string * float) list * float
      (** [Additive_ineq ([(a1,w1);...], c)] holds when
          [w1*a1 + ... + wn*an > c]. *)

val attrs : t -> string list
(** Attributes mentioned, with repetitions. *)

val eval : Schema.t -> Tuple.t -> t -> bool

val compile_cols : Schema.t -> Column.t array -> t -> int -> bool
(** Resolve attribute positions once and return a closure that tests a
    row INDEX against the given columns (positionally aligned with the
    schema), with typed fast paths and no tuple materialisation. It agrees
    with {!eval} on every representation, NaN and ±0.0 included. *)

val to_sql : t -> string
(** SQL rendering (paper Section 2 presents the aggregate forms as SQL). *)

val pp : Format.formatter -> t -> unit
