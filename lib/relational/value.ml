(* Database values.

   Integers double as categorical codes (the generators emit them as ints);
   floats carry continuous features; strings appear only at the edges (CSV
   import/export). *)

type t = Null | Int of int | Float of float | Str of string

type ty = TInt | TFloat | TStr

let type_of = function
  | Null -> None
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | Str _ -> Some TStr

let ty_to_string = function TInt -> "int" | TFloat -> "float" | TStr -> "string"

(* Total order: Null < Int < Float < Str, numeric within a constructor.
   Ints and floats are NOT compared cross-type: schemas are homogeneous per
   attribute, so cross-constructor comparisons only order distinct types. *)
let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | Int x, Int y -> Stdlib.compare x y
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Float x, Float y -> Stdlib.compare x y
  | Float _, _ -> -1
  | _, Float _ -> 1
  | Str x, Str y -> Stdlib.compare x y

let equal a b = compare a b = 0

let hash = function
  | Null -> 0
  | Int x -> x * 0x9E3779B1
  | Float x -> Hashtbl.hash x
  | Str s -> Hashtbl.hash s

(* Numeric view; categorical ints are also usable as numbers when the model
   wants raw codes (the sparse-tensor encoding avoids that, but tests do). *)
let to_float = function
  | Int x -> float_of_int x
  | Float x -> x
  | Null -> 0.0
  | Str _ -> invalid_arg "Value.to_float: string value"

let to_int = function
  | Int x -> x
  | Float x -> int_of_float x
  | Null -> 0
  | Str _ -> invalid_arg "Value.to_int: string value"

let to_string = function
  | Null -> ""
  | Int x -> string_of_int x
  | Float x -> Printf.sprintf "%.6g" x
  | Str s -> s

let of_string ty s =
  match ty with
  | TInt -> Int (int_of_string s)
  | TFloat -> Float (float_of_string s)
  | TStr -> Str s

let pp ppf v = Format.pp_print_string ppf (to_string v)
