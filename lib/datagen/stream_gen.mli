(** Update-stream generation for the IVM experiments (Figure 4 right), the
    hostile-stream scenario grammar (the dataset x shape x layer
    differential matrix), and the star workload every hand-built
    differential shares. *)

val inserts_of_database : ?seed:int -> Relational.Database.t -> Fivm.Delta.update list
(** All tuples as single-tuple inserts against an initially empty database:
    shuffled dimensions first (reference data before facts), then the
    shuffled fact. *)

val with_churn : ?seed:int -> ?churn:float -> Relational.Database.t -> Fivm.Delta.update list
(** The insert stream followed by delete/re-insert pairs for a [churn]
    fraction of fact tuples — exercises the additive inverse. *)

val fact_relation : Relational.Database.t -> Relational.Relation.t
(** The highest-cardinality relation — the stream's fact table. *)

(** Hostile stream shapes, schema-agnostic over any generated database. *)
type shape =
  | Single_tuple  (** one update per delta batch *)
  | Batched of int  (** inserts delivered in batches of K *)
  | Churn of float  (** delete/re-insert pairs for a fraction of the fact *)
  | Net_zero
      (** churn 1.0 with groups deleted for good (net ZERO multiplicity) and
          double-delete windows (multiplicity dips PAST zero to -1) *)
  | Out_of_order of int
      (** delivery shuffled within windows of K: deletes can overtake the
          inserts they cancel, facts can overtake dimensions *)
  | Zipf_churn of float
      (** churn victims drawn Zipf(s): hot fact keys churned repeatedly *)
  | High_card
      (** every shared int join key rewritten to a string — forces
          [Keypack]'s boxed fallback on all shard/index routing *)

val shapes : (string * shape) list
(** The canonical named cells ("single", "batched", "churn", "net-zero",
    "out-of-order", "zipf", "high-card") used by the CLI, CI and bench. *)

val shape_name : shape -> string
val shape_of_string : string -> shape option

val lattice_database : Relational.Database.t -> Relational.Database.t
(** Copy with every float feature snapped onto the dyadic lattice
    {1/16 .. 64/16}: covariance-ring arithmetic over such values is EXACT,
    so maintained results are bit-identical to recomputation under any
    delivery order, batching or sharding. *)

val high_card_database : Relational.Database.t -> Relational.Database.t
(** Copy with every shared int join key rewritten (consistently, preserving
    FK integrity) to a high-cardinality string key. *)

val hostile :
  ?seed:int ->
  shape ->
  Relational.Database.t ->
  Relational.Database.t * Fivm.Delta.update list list
(** [hostile shape db] is the pair of the transformed database (lattice
    floats, plus string keys for [High_card]) and the delta-batch stream of
    the given shape over it. Every shape's stream nets to a final state with
    non-negative multiplicities, so maintained == recompute differentials
    are well-defined at the end of the stream. *)

(** {1 The star workload}

    The star schema F(a,b,m), D1(a,u), D2(b,v) and its random update
    stream, shared by every hand-built differential. Join keys are drawn
    from [{0..3}]; each relation carries one numeric feature. *)

val star_database : unit -> Relational.Database.t
(** A fresh, empty copy of the star schema. *)

val star_features : string list
(** ["m"; "u"; "v"]. *)

val star_batches : Aggregates.Batch.t list
(** The served batch mix: the covariance batch over {!star_features}
    (refreshed in place on deltas), mutual information over [a] and [b],
    and ["grouped"] ([sum_m_by_a] plus the count [n]); the last two are
    invalidated by every delta. *)

(** How feature values are drawn. *)
type draw =
  | Lattice
      (** [k/16] for [k] in [1..64]: covariance arithmetic is exact, so
          maintained results are bit-identical to a recompute *)
  | Uniform  (** [Util.Prng.float rng 5.0] *)
  | Integer  (** an integer in [0..4], as a float *)

val draw_value : draw -> Util.Prng.t -> float

type star_gen
(** Persistent generator state: the value draw, whether the stream
    deletes, and the live set (inserts not yet deleted). *)

val star_gen : ?draw:draw -> ?deletes:bool -> unit -> star_gen
(** Defaults: [Lattice] values, deletes on. *)

val star_updates : star_gen -> Util.Prng.t -> int -> Fivm.Delta.update list
(** [star_updates g rng n] draws [n] updates from [rng]. When [g] deletes,
    a quarter of the draws (while anything is live) delete a uniformly
    chosen live insert; every other draw inserts into a uniformly chosen
    relation. The live set carries over between calls, so a stream can be
    drawn batch by batch. *)

val star_live : star_gen -> Fivm.Delta.update list
(** The live inserts, oldest first. *)

val star_stream : ?draw:draw -> ?deletes:bool -> seed:int -> int -> Fivm.Delta.update list
(** [star_stream ~seed n]: [n] updates of a fresh generator drawn from
    [Util.Prng.create seed]. *)
