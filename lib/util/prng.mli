(** Deterministic pseudo-random number generation (splitmix64).

    All randomness in the repository flows through this module so that data
    generation, shuffling, and randomised tests are reproducible per seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds give equal streams. *)

val copy : t -> t
(** Independent copy with the same current state. *)

val next_int64 : t -> int64
(** Raw 64-bit output of one splitmix64 step. *)

val bits : t -> int
(** Uniform non-negative 62-bit integer. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises on [bound <= 0]. *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val float_range : t -> float -> float -> float
(** Uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** Fair coin. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normally distributed value (Box-Muller). *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val choice : t -> 'a array -> 'a
(** Uniformly chosen element. Raises on empty arrays. *)

val split : t -> t
(** A generator seeded from this one; both can then be used independently. *)

val backoff : t -> base:float -> cap:float -> attempt:int -> float
(** [backoff t ~base ~cap ~attempt] draws a full-jitter exponential backoff
    delay: uniform in [\[0, min cap (base * 2^attempt))]. [attempt] counts
    from 0 and is clamped internally so large values cannot overflow.
    Deterministic under seed; raises on negative [base] or [cap]. *)

type zipf
(** A Zipf sampler over ranks [\[1, n\]]: its table of x^(s-1). Build it
    once and draw from it as often as needed; it is immutable, so
    generators on several domains may share it. *)

val zipf_sampler : n:int -> s:float -> zipf
(** [zipf_sampler ~n ~s] with skew exponent [s] (s <= 0 gives uniform).
    Raises on [n <= 0]. *)

val zipf : t -> zipf -> int
(** A Zipf-distributed rank in [\[1, n\]]. Used to generate realistically
    skewed foreign keys. *)
