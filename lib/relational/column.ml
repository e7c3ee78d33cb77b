(* Typed columns: the unboxed physical representation behind [Relation].

   A column starts in the representation its declared type suggests —
   [Ints] for [Value.TInt] (categorical codes and keys), [Floats] for
   [Value.TFloat] (continuous features,
   stored in OCaml's flat float arrays), [Boxed] for [Value.TStr] — and
   promotes itself to [Boxed] the first time a value that does not fit the
   typed representation is stored (a [Null] from an outer join, a stray
   constructor). Promotion rewrites the already-stored prefix as the
   equivalent boxed values, so reads observe exactly the [Value.t]s that
   were appended: the columnar store is semantically indistinguishable from
   the old array-of-boxed-tuples row store. *)

type data =
  | Ints of int array
  | Floats of float array
  | Boxed of Value.t array

type t = { mutable data : data }

let create ty capacity =
  let capacity = Stdlib.max 1 capacity in
  {
    data =
      (match ty with
      | Value.TInt -> Ints (Array.make capacity 0)
      | Value.TFloat -> Floats (Array.make capacity 0.0)
      | Value.TStr -> Boxed (Array.make capacity Value.Null));
  }

let of_ints a = { data = Ints (if Array.length a = 0 then [| 0 |] else a) }
let of_floats a = { data = Floats (if Array.length a = 0 then [| 0.0 |] else a) }
let of_boxed a = { data = Boxed (if Array.length a = 0 then [| Value.Null |] else a) }
let data t = t.data

let capacity t =
  match t.data with
  | Ints a -> Array.length a
  | Floats a -> Array.length a
  | Boxed a -> Array.length a

(* Box cell [i]. No bounds check: [Relation] guards the logical size. *)
let get t i =
  match t.data with
  | Ints a -> Value.Int a.(i)
  | Floats a -> Value.Float a.(i)
  | Boxed a -> a.(i)

(* Numeric views with [Value.to_float]/[to_int] semantics. *)
let float_at t i =
  match t.data with
  | Ints a -> float_of_int a.(i)
  | Floats a -> a.(i)
  | Boxed a -> Value.to_float a.(i)

let int_at t i =
  match t.data with
  | Ints a -> a.(i)
  | Floats a -> int_of_float a.(i)
  | Boxed a -> Value.to_int a.(i)

(* Rewrite the whole backing array boxed. Slots beyond the relation's
   logical size hold defaults (0 / 0.0) whose boxed images are never read. *)
let promote t =
  match t.data with
  | Boxed _ -> ()
  | Ints a -> t.data <- Boxed (Array.map (fun x -> Value.Int x) a)
  | Floats a -> t.data <- Boxed (Array.map (fun x -> Value.Float x) a)

let rec set t i v =
  match (t.data, v) with
  | Ints a, Value.Int x -> a.(i) <- x
  | Floats a, Value.Float x -> a.(i) <- x
  | Boxed a, _ -> a.(i) <- v
  | (Ints _ | Floats _), _ ->
      promote t;
      set t i v

(* Copy cell [src_i] of [src] into cell [dst_i] of [dst] without boxing when
   the representations agree (the common case for same-typed schemas). *)
let copy_cell ~src ~src_i ~dst ~dst_i =
  match (src.data, dst.data) with
  | Ints a, Ints b -> b.(dst_i) <- a.(src_i)
  | Floats a, Floats b -> b.(dst_i) <- a.(src_i)
  | Boxed a, Boxed b -> b.(dst_i) <- a.(src_i)
  | _ -> set dst dst_i (get src src_i)

let grow t new_capacity =
  match t.data with
  | Ints a ->
      let b = Array.make new_capacity 0 in
      Array.blit a 0 b 0 (Array.length a);
      t.data <- Ints b
  | Floats a ->
      let b = Array.make new_capacity 0.0 in
      Array.blit a 0 b 0 (Array.length a);
      t.data <- Floats b
  | Boxed a ->
      let b = Array.make new_capacity Value.Null in
      Array.blit a 0 b 0 (Array.length a);
      t.data <- Boxed b

(* Fresh column holding the first [n] cells (used by [Relation.copy]). *)
let sub t n =
  let n' = Stdlib.max 1 n in
  {
    data =
      (match t.data with
      | Ints a -> Ints (Array.sub a 0 (Stdlib.min n' (Array.length a)))
      | Floats a -> Floats (Array.sub a 0 (Stdlib.min n' (Array.length a)))
      | Boxed a -> Boxed (Array.sub a 0 (Stdlib.min n' (Array.length a))));
  }

(* Move cell [i] to [dest.(i)] for every [i < n], where [dest] permutes
   [0, n): one scatter into a fresh array of the same capacity. *)
let scatter t dest n =
  if Array.length dest < n || n > capacity t then invalid_arg "Column.scatter";
  match t.data with
  | Ints a ->
      let b = Array.make (Array.length a) 0 in
      for i = 0 to n - 1 do
        b.(Array.unsafe_get dest i) <- Array.unsafe_get a i
      done;
      t.data <- Ints b
  | Floats a ->
      let b = Array.make (Array.length a) 0.0 in
      for i = 0 to n - 1 do
        b.(Array.unsafe_get dest i) <- Array.unsafe_get a i
      done;
      t.data <- Floats b
  | Boxed a ->
      let b = Array.make (Array.length a) Value.Null in
      for i = 0 to n - 1 do
        b.(Array.unsafe_get dest i) <- Array.unsafe_get a i
      done;
      t.data <- Boxed b
