(* Structured filter predicates.

   Keeping predicates first-order (rather than opaque closures) lets the
   aggregate engines inspect them: decision-tree costs push threshold and
   set-membership filters into aggregates (paper Section 2.2), and the
   additive-inequality predicate is the new theta-join condition of Section
   2.3. *)

type t =
  | True
  | Ge of string * Value.t (* attr >= const *)
  | Lt of string * Value.t (* attr < const *)
  | Eq of string * Value.t
  | In of string * Value.t list
  | Not of t
  | And of t * t
  | Or of t * t
  | Additive_ineq of (string * float) list * float
      (* sum_i w_i * attr_i > c, over numeric attributes *)

let rec attrs = function
  | True -> []
  | Ge (a, _) | Lt (a, _) | Eq (a, _) | In (a, _) -> [ a ]
  | Not p -> attrs p
  | And (p, q) | Or (p, q) -> attrs p @ attrs q
  | Additive_ineq (terms, _) -> List.map fst terms

let rec eval schema (tuple : Tuple.t) = function
  | True -> true
  | Ge (a, c) -> Value.compare tuple.(Schema.position schema a) c >= 0
  | Lt (a, c) -> Value.compare tuple.(Schema.position schema a) c < 0
  | Eq (a, c) -> Value.equal tuple.(Schema.position schema a) c
  | In (a, cs) ->
      let v = tuple.(Schema.position schema a) in
      List.exists (Value.equal v) cs
  | Not p -> not (eval schema tuple p)
  | And (p, q) -> eval schema tuple p && eval schema tuple q
  | Or (p, q) -> eval schema tuple p || eval schema tuple q
  | Additive_ineq (terms, c) ->
      let s =
        List.fold_left
          (fun acc (a, w) ->
            acc +. (w *. Value.to_float tuple.(Schema.position schema a)))
          0.0 terms
      in
      s > c

(* Columnar compilation: resolve each attribute to its column once and
   specialise the comparison to the column representation, so scans test
   rows by index without materialising tuples. Every path agrees with
   [eval]: the generic fallback boxes just the one referenced cell,
   keeping [Value.compare] semantics for promoted or cross-typed columns,
   and the [Floats] fast paths, taken only for a non-NaN constant, match
   [Value.compare]'s order, where NaN equals itself and sorts below every
   float — so a NaN cell fails [>=] and passes [<]. *)
let compile_cols schema (cols : Column.t array) p =
  let col a = cols.(Schema.position schema a) in
  let rec go = function
    | True -> fun _ -> true
    | Ge (a, c) -> (
        let cl = col a in
        match (Column.data cl, c) with
        | Column.Ints arr, Value.Int x -> fun i -> arr.(i) >= x
        | Column.Floats arr, Value.Float x when not (Float.is_nan x) ->
            fun i -> arr.(i) >= x
        | _ -> fun i -> Value.compare (Column.get cl i) c >= 0)
    | Lt (a, c) -> (
        let cl = col a in
        match (Column.data cl, c) with
        | Column.Ints arr, Value.Int x -> fun i -> arr.(i) < x
        | Column.Floats arr, Value.Float x when not (Float.is_nan x) ->
            fun i -> not (arr.(i) >= x)
        | _ -> fun i -> Value.compare (Column.get cl i) c < 0)
    | Eq (a, c) -> (
        let cl = col a in
        match (Column.data cl, c) with
        | Column.Ints arr, Value.Int x -> fun i -> arr.(i) = x
        | Column.Floats arr, Value.Float x when not (Float.is_nan x) ->
            fun i -> arr.(i) = x
        | _ -> fun i -> Value.equal (Column.get cl i) c)
    | In (a, cs) -> (
        let cl = col a in
        match Column.data cl with
        | Column.Ints arr
          when List.for_all (function Value.Int _ -> true | _ -> false) cs ->
            let xs = List.map Value.to_int cs in
            fun i -> List.mem arr.(i) xs
        | _ -> fun i -> List.exists (Value.equal (Column.get cl i)) cs)
    | Not p ->
        let f = go p in
        fun i -> not (f i)
    | And (p, q) ->
        let f = go p and g = go q in
        fun i -> f i && g i
    | Or (p, q) ->
        let f = go p and g = go q in
        fun i -> f i || g i
    | Additive_ineq (terms, c) ->
        let compiled = List.map (fun (a, w) -> (col a, w)) terms in
        fun i ->
          List.fold_left
            (fun acc (cl, w) -> acc +. (w *. Column.float_at cl i))
            0.0 compiled
          > c
  in
  go p

(* SQL rendering of a predicate (the paper presents the aggregate forms as
   SQL in Section 2). *)
let rec to_sql = function
  | True -> "TRUE"
  | Ge (a, c) -> Printf.sprintf "%s >= %s" a (Value.to_string c)
  | Lt (a, c) -> Printf.sprintf "%s < %s" a (Value.to_string c)
  | Eq (a, c) -> Printf.sprintf "%s = %s" a (Value.to_string c)
  | In (a, cs) ->
      Printf.sprintf "%s IN (%s)" a
        (String.concat ", " (List.map Value.to_string cs))
  | Not p -> Printf.sprintf "NOT (%s)" (to_sql p)
  | And (p, q) -> Printf.sprintf "(%s AND %s)" (to_sql p) (to_sql q)
  | Or (p, q) -> Printf.sprintf "(%s OR %s)" (to_sql p) (to_sql q)
  | Additive_ineq (terms, c) ->
      Printf.sprintf "%s > %g"
        (String.concat " + "
           (List.map (fun (a, w) -> Printf.sprintf "%g * %s" w a) terms))
        c

let rec pp ppf = function
  | True -> Format.fprintf ppf "true"
  | Ge (a, c) -> Format.fprintf ppf "%s >= %a" a Value.pp c
  | Lt (a, c) -> Format.fprintf ppf "%s < %a" a Value.pp c
  | Eq (a, c) -> Format.fprintf ppf "%s = %a" a Value.pp c
  | In (a, cs) ->
      Format.fprintf ppf "%s in (%s)" a
        (String.concat ", " (List.map Value.to_string cs))
  | Not p -> Format.fprintf ppf "not (%a)" pp p
  | And (p, q) -> Format.fprintf ppf "(%a and %a)" pp p pp q
  | Or (p, q) -> Format.fprintf ppf "(%a or %a)" pp p pp q
  | Additive_ineq (terms, c) ->
      Format.fprintf ppf "%s > %g"
        (String.concat " + "
           (List.map (fun (a, w) -> Printf.sprintf "%g*%s" w a) terms))
        c
