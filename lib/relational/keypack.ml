(* Packed join/group-by keys.

   Multi-attribute keys over dictionary-encoded int columns pack into one
   immediate OCaml int (63 usable bits), so the hash tables on every join,
   group-by and view hot path hash and compare ints instead of boxed
   [Value.t array]s. Keys that do not fit — floats, strings, nulls, ints
   outside the per-field budget — fall back to the boxed tuple
   representation.

   Routing is a pure function of the key VALUES (not of the column
   representation they came from), so the column-reading extractor used by
   scans and the tuple-reading packer used by streaming updates agree: a
   given logical key always lands in the same side of a {!Hybrid} table.

   Packing layout: arity 1 is the identity (any int, including negatives);
   arity k >= 2 gives each field [62 / k] bits and requires
   [0 <= v < 2^(62/k)], folding big-endian ([(acc lsl w) lor v]). The map
   is injective on its domain and lexicographically monotone, and fields
   are recoverable by mask/shift (see {!unpack}). *)

type key = P of int | B of Tuple.t

let field_width k = if k <= 1 then 62 else 62 / k

(* Observability: how often keys pack vs. fall back to boxed tuples. *)
let c_packed = Obs.counter "keypack.packed"
let c_boxed = Obs.counter "keypack.boxed"

let key_equal a b =
  match (a, b) with
  | P x, P y -> x = y
  | B x, B y -> Tuple.equal x y
  | P _, B _ | B _, P _ -> false

(* Multiplicative hash with the high bits folded back down: [Hashtbl] masks
   the LOW bits of the hash to pick a bucket, and a bare [x * C] leaves them
   carrying only the low bits of [x] — i.e. only the LAST field of a packed
   key, collapsing the table into one chain per low-field value. *)
let hash_int x =
  let h = x * 0x2545F4914F6CDD1D in
  h lxor (h asr 31)

let key_hash = function P x -> hash_int x | B t -> Tuple.hash t

(* Shard routing depends only on the key value (via [key_hash]), so a packed
   key and its boxed round trip land on the same shard, and every producer
   of the same key routes identically. *)
let shard_of_key ~shards k =
  if shards <= 1 then 0 else (key_hash k land max_int) mod shards

(* Total order (packed before boxed): deterministic serialisation order for
   checkpoint writers iterating hash tables. *)
let key_compare a b =
  match (a, b) with
  | P x, P y -> Stdlib.compare x y
  | B x, B y -> Tuple.compare x y
  | P _, B _ -> -1
  | B _, P _ -> 1

(* [unpack k p] recovers the [k] packed fields as [Value.Int]s. *)
let unpack k p =
  if k = 1 then [| Value.Int p |]
  else
    let w = field_width k in
    let mask = (1 lsl w) - 1 in
    Array.init k (fun j -> Value.Int ((p asr ((k - 1 - j) * w)) land mask))

let key_tuple k = function P p -> unpack k p | B t -> t

(* Streaming packer: route a projection of a boxed tuple. *)
let key_of_tuple (positions : int array) (tuple : Tuple.t) : key =
  let k = Array.length positions in
  if k = 0 then P 0
  else if k = 1 then
    match tuple.(positions.(0)) with
    | Value.Int x -> P x
    | v -> B [| v |]
  else begin
    let w = field_width k in
    let bound = 1 lsl w in
    let rec go j acc =
      if j = k then P acc
      else
        match tuple.(positions.(j)) with
        | Value.Int x when x >= 0 && x < bound -> go (j + 1) ((acc lsl w) lor x)
        | _ -> B (Tuple.project tuple positions)
    in
    go 0 0
  end

(* Closure-free packing loop (fields are non-negative, so packed values are
   non-negative and -1 can flag "does not pack"). Defined outside the
   extractor's returned closure so per-row extraction allocates nothing on
   the fast path. *)
let rec pack_loop (datas : Column.data array) k w bound i j acc =
  if j = k then acc
  else
    match datas.(j) with
    | Column.Ints a ->
        let x = a.(i) in
        if x >= 0 && x < bound then
          pack_loop datas k w bound i (j + 1) ((acc lsl w) lor x)
        else -1
    | Column.Boxed a -> (
        match a.(i) with
        | Value.Int x when x >= 0 && x < bound ->
            pack_loop datas k w bound i (j + 1) ((acc lsl w) lor x)
        | _ -> -1)
    | Column.Floats _ -> -1

(* Compiled extractor: read the key straight out of the given columns (in
   key order), packing without ever boxing on the all-int fast path. The
   column representations are captured at compile time; extractors are for
   scans over fully-built relations. *)
let extractor (cols : Column.t array) : int -> key =
  let k = Array.length cols in
  if k = 0 then fun _ -> P 0
  else if k = 1 then
    match Column.data cols.(0) with
    | Column.Ints a -> fun i -> P a.(i)
    | Column.Floats a -> fun i -> B [| Value.Float a.(i) |]
    | Column.Boxed a -> (
        fun i -> match a.(i) with Value.Int x -> P x | v -> B [| v |])
  else begin
    let w = field_width k in
    let bound = 1 lsl w in
    let datas = Array.map Column.data cols in
    fun i ->
      let p = pack_loop datas k w bound i 0 0 in
      if p >= 0 then P p
      else B (Array.init k (fun j -> Column.get cols.(j) i))
  end

(* Int-keyed hash table (the packed side of a hybrid table). *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash = hash_int
end)

(* A key-value table split by key representation: packed ints hash as
   immediates, fallback keys as boxed tuples. Because routing is value-
   deterministic, lookups never need to consult both sides. *)
module Hybrid = struct
  type 'a t = { packed : 'a Itbl.t; boxed : 'a Tuple.Tbl.t }

  let create n =
    { packed = Itbl.create (Stdlib.max 8 n); boxed = Tuple.Tbl.create 8 }

  let find_opt t = function
    | P p -> Itbl.find_opt t.packed p
    | B k -> Tuple.Tbl.find_opt t.boxed k

  let mem t = function
    | P p -> Itbl.mem t.packed p
    | B k -> Tuple.Tbl.mem t.boxed k

  let add t key v =
    match key with
    | P p ->
        Obs.incr c_packed;
        Itbl.add t.packed p v
    | B k ->
        Obs.incr c_boxed;
        Tuple.Tbl.add t.boxed k v

  let length t = Itbl.length t.packed + Tuple.Tbl.length t.boxed

  let iter f t =
    Itbl.iter (fun p v -> f (P p) v) t.packed;
    Tuple.Tbl.iter (fun k v -> f (B k) v) t.boxed

  let fold f t init =
    let acc = Itbl.fold (fun p v acc -> f (P p) v acc) t.packed init in
    Tuple.Tbl.fold (fun k v acc -> f (B k) v acc) t.boxed acc
end
