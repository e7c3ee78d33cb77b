(* Packed join/group-by keys: the one place that knows how a key packs and
   how a packed key is found.

   Multi-attribute keys over dictionary-encoded int columns pack into one
   immediate OCaml int (63 usable bits), so the hash tables on every join,
   group-by and view hot path hash and compare ints instead of boxed
   [Value.t array]s. Keys that do not fit — floats, strings, nulls, ints
   outside the per-field budget — fall back to the boxed tuple
   representation.

   Routing is a pure function of the key VALUES (not of the column
   representation they came from), so the column-reading readers used by
   scans and the tuple-reading packer used by streaming updates agree: a
   given logical key always lands on the same side of a table.

   Packing layout: arity 0 packs as 0; arity 1 is the identity (any int,
   including negatives); arity k >= 2 gives each field [62 / k] bits and
   requires [0 <= v < 2^(62/k)], folding big-endian ([(acc lsl w) lor v]).
   The map is injective on its domain and lexicographically monotone, and
   fields are recoverable by mask/shift (see {!unpack}).

   Two forms. A [key] ([P]/[B]) is what [Hybrid] tables, shard routing and
   checkpoint bytes hold. Where a key must be an int — the readers, [pack]
   and [Index], which flat views, F-IVM storage and view trees use —
   [nopack] ([min_int]) stands for a key that does not pack, which is then
   read as a tuple. The two forms differ on one key only: an arity-1
   [Int min_int] is [P min_int], but its int form is [nopack], so on the
   int paths it takes the boxed side. Each side is still a function of the
   key value alone. [to_key] and [of_key] convert between the forms.

   The key hash multiplies and folds the high bits back down: [Hashtbl]
   and [Index] take the LOW bits of a hash for a bucket or slot, and a bare
   [x * C] leaves them carrying only the low bits of [x] — only the LAST
   field of a packed key. *)

type key = P of int | B of Tuple.t

let nopack = min_int
let field_width k = if k <= 1 then 62 else 62 / k

(* Observability: how often keys inserted into a table pack vs. fall back
   to boxed tuples. *)
let c_packed = Obs.counter "keypack.packed"
let c_boxed = Obs.counter "keypack.boxed"

let key_equal a b =
  match (a, b) with
  | P x, P y -> x = y
  | B x, B y -> Tuple.equal x y
  | P _, B _ | B _, P _ -> false

let hash x =
  let h = x * 0x2545F4914F6CDD1D in
  h lxor (h asr 31)

let key_hash = function P x -> hash x | B t -> Tuple.hash t

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

(* ---------- keys as ints ---------- *)

let pack_tuple (t : Tuple.t) =
  match key_of_tuple (Array.init (Array.length t) Fun.id) t with P p -> p | B _ -> nopack

let to_key p (t : Tuple.t) =
  if p <> nopack then P p else match t with [| Value.Int x |] -> P x | t -> B t

let of_key = function
  | P p when p <> nopack -> (p, [||])
  | P p -> (nopack, [| Value.Int p |])
  | B t ->
      let p = pack_tuple t in
      if p <> nopack then (p, [||]) else (nopack, t)

(* An arity-1 key's int form out of one column. *)
let[@inline] single (d : Column.data) i =
  match d with
  | Column.Ints a -> Array.unsafe_get a i
  | Column.Floats _ -> nopack
  | Column.Boxed a -> ( match Array.unsafe_get a i with Value.Int x -> x | _ -> nopack)

(* The packing loop at arity >= 2, closure-free: fields are non-negative,
   so -1 stands for a cell that is not an int. It reads each column's
   current representation as a field: calling [Column.data] per field
   slowed scale-4 retailer's k-means batch by about 15% (2 vCPUs). *)
let rec pack_loop (cols : Column.t array) (positions : int array) w bound i j acc =
  if j = Array.length positions then acc
  else
    let x =
      match (Array.unsafe_get cols (Array.unsafe_get positions j)).Column.data with
      | Column.Ints a -> Array.unsafe_get a i
      | Column.Floats _ -> -1
      | Column.Boxed a -> ( match Array.unsafe_get a i with Value.Int x -> x | _ -> -1)
    in
    if x >= 0 && x < bound then pack_loop cols positions w bound i (j + 1) ((acc lsl w) lor x)
    else nopack

let pack cols positions i =
  let k = Array.length positions in
  if k = 0 then 0
  else if k = 1 then single (Column.data cols.(positions.(0))) i
  else
    let w = field_width k in
    pack_loop cols positions w (1 lsl w) i 0 0

let reader (cols : Column.t array) (positions : int array) : int -> int =
  let k = Array.length positions in
  if k = 0 then fun _ -> 0
  else if k = 1 then
    match Column.data cols.(positions.(0)) with
    | Column.Ints a -> fun i -> Array.unsafe_get a i
    | Column.Floats _ -> fun _ -> nopack
    | Column.Boxed _ as d -> fun i -> single d i
  else
    let w = field_width k in
    let bound = 1 lsl w in
    fun i -> pack_loop cols positions w bound i 0 0

let tuple (cols : Column.t array) (positions : int array) i : Tuple.t =
  Array.map (fun p -> Column.get cols.(p) i) positions

let extractor (cols : Column.t array) : int -> key =
  let positions = Array.init (Array.length cols) Fun.id in
  let read = reader cols positions in
  fun i ->
    let p = read i in
    if p <> nopack then P p else to_key p (tuple cols positions i)

(* Int-keyed hash table (the packed side of a hybrid table). *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash = hash
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

(* Int keys to non-negative ints: one array of [key; value] pairs with
   linear probing, a value of -1 marking a vacant slot, at most half the
   slots used. A removal shifts the rest of its probe run back, so there
   are no tombstones. Keys inserted since the last [clear] are logged while
   they number at most an eighth of the slots, so clearing a sparse table
   removes them one by one and a dense one is refilled. *)
module Index = struct
  type t = {
    mutable pairs : int array;
    mutable used : int;
    mutable log : int array;
    mutable logged : int; (* keys in [log]; -1 once more were inserted *)
    boxed : int Tuple.Tbl.t;
  }

  let sized slots =
    {
      pairs = Array.make (2 * slots) (-1);
      used = 0;
      log = Array.make (slots / 8) 0;
      logged = 0;
      boxed = Tuple.Tbl.create 8;
    }

  let create () = sized 16

  (* The slot holding [p], or the vacant slot that ends its probe run. A
     loop, not a recursive function, so that it inlines: [find] makes no
     call. *)
  let[@inline] slot t p =
    let pairs = t.pairs in
    let mask = (Array.length pairs lsr 1) - 1 in
    let i = ref (hash p land mask) in
    while Array.unsafe_get pairs ((2 * !i) + 1) >= 0 && Array.unsafe_get pairs (2 * !i) <> p do
      i := (!i + 1) land mask
    done;
    !i

  let find t p = Array.unsafe_get t.pairs ((2 * slot t p) + 1)

  (* Put a new key at its vacant slot [s]. *)
  let fill t s p v =
    t.pairs.(2 * s) <- p;
    t.pairs.((2 * s) + 1) <- v;
    t.used <- t.used + 1;
    if t.logged >= 0 then
      if t.logged < Array.length t.log then begin
        t.log.(t.logged) <- p;
        t.logged <- t.logged + 1
      end
      else t.logged <- -1

  (* Double the slots. A table this full has logged more keys than its log
     holds, so the log is only resized. *)
  let grow t =
    let old = t.pairs in
    let slots = Array.length old (* twice the old slots *) in
    t.pairs <- Array.make (2 * slots) (-1);
    t.log <- Array.make (slots / 8) 0;
    for i = 0 to (slots / 2) - 1 do
      let v = old.((2 * i) + 1) in
      if v >= 0 then begin
        let p = old.(2 * i) in
        let s = slot t p in
        t.pairs.(2 * s) <- p;
        t.pairs.((2 * s) + 1) <- v
      end
    done

  (* Map the new key [p], whose probe ended at the vacant slot [s], to
     [v]. *)
  let add_new t s p v =
    if 2 * (t.used + 1) > Array.length t.pairs lsr 1 then begin
      grow t;
      fill t (slot t p) p v
    end
    else fill t s p v;
    Obs.incr c_packed

  let add t p v =
    let s = slot t p in
    let old = Array.unsafe_get t.pairs ((2 * s) + 1) in
    if old < 0 then add_new t s p v;
    old

  let replace t p v =
    let s = slot t p in
    let old = Array.unsafe_get t.pairs ((2 * s) + 1) in
    if old >= 0 then t.pairs.((2 * s) + 1) <- v else add_new t s p v;
    old

  let of_keys keys n =
    let slots = ref 16 in
    while 2 * (n + 1) > !slots do
      slots := 2 * !slots
    done;
    let t = sized !slots in
    for i = 0 to n - 1 do
      let p = keys.(i) in
      if p <> nopack then fill t (slot t p) p i
    done;
    t

  (* Fill [hole] from the rest of its probe run: the key at [j] moves back
     unless its home lies cyclically in (hole, j]. *)
  let rec shift pairs mask hole j =
    let j = (j + 1) land mask in
    let v = Array.unsafe_get pairs ((2 * j) + 1) in
    if v < 0 then Array.unsafe_set pairs ((2 * hole) + 1) (-1)
    else
      let h = hash (Array.unsafe_get pairs (2 * j)) land mask in
      if if hole <= j then h <= hole || h > j else h <= hole && h > j then begin
        Array.unsafe_set pairs (2 * hole) (Array.unsafe_get pairs (2 * j));
        Array.unsafe_set pairs ((2 * hole) + 1) v;
        shift pairs mask j j
      end
      else shift pairs mask hole j

  let remove t p =
    let s = slot t p in
    if Array.unsafe_get t.pairs ((2 * s) + 1) >= 0 then begin
      t.used <- t.used - 1;
      shift t.pairs ((Array.length t.pairs lsr 1) - 1) s s
    end

  let find_boxed t key = match Tuple.Tbl.find_opt t.boxed key with Some v -> v | None -> -1

  let replace_boxed t key v =
    let old = find_boxed t key in
    if old < 0 then Obs.incr c_boxed;
    Tuple.Tbl.replace t.boxed key v;
    old

  let remove_boxed t key = Tuple.Tbl.remove t.boxed key
  let iter_boxed f t = Tuple.Tbl.iter f t.boxed
  let length t = t.used + Tuple.Tbl.length t.boxed

  let clear t =
    if t.logged >= 0 then
      for i = 0 to t.logged - 1 do
        remove t t.log.(i)
      done
    else begin
      Array.fill t.pairs 0 (Array.length t.pairs) (-1);
      t.used <- 0
    end;
    t.logged <- 0;
    if Tuple.Tbl.length t.boxed > 0 then Tuple.Tbl.reset t.boxed
end
