(* Payloads for incremental view maintenance.

   A view tree owns one buffer per view entry plus per-node scratch, and
   every ring operation writes into a buffer the tree already holds: a
   product into a destination, a sum into its accumulator, a scaling in
   place. A steady-state update therefore allocates no ring elements,
   whatever the payload's size. The ring's one is never materialised: a
   tree reads an empty product's first factor in place instead of
   multiplying by one, which is also what keeps the covariance kernels
   bit-identical to the persistent ring (multiplying by a concrete one
   would turn -0.0 sums into 0.0). *)

module type S = sig
  type t

  val mul : t -> t -> into:t -> unit
  val add : t -> into:t -> unit
  val scale : int -> t -> unit
  val is_zero : t -> bool
  val copy : t -> into:t -> unit
end

(* A flat float record, so writes store the float unboxed. *)
module Float = struct
  type t = { mutable v : float }

  let make v = { v }
  let get x = x.v
  let set x v = x.v <- v
  let mul a b ~into = into.v <- a.v *. b.v
  let add x ~into = into.v <- into.v +. x.v
  let scale m x = x.v <- float_of_int m *. x.v
  let is_zero x = x.v = 0.0
  let copy x ~into = into.v <- x.v
end

(* The covariance ring on one unboxed array [c | s | Q row-major]. Each
   kernel is the matching [Rings.Covariance] function with the same float
   operations in the same order (operand order included), only reading and
   writing buffers instead of building records: maintained views stay
   bit-identical to the persistent ring's. The kernels check lengths once,
   then index unchecked. *)
module Cov = struct
  type t = float array

  let zero d = Array.make (1 + d + (d * d)) 0.0

  (* 1 + d + d² = n gives d = floor (sqrt (n - 1)). *)
  let dim (x : t) = int_of_float (sqrt (float_of_int (Array.length x - 1)))

  let check name (x : t) (into : t) =
    if Array.length x <> Array.length into then invalid_arg ("Payload.Cov." ^ name)

  (* typed, so the primitives compile to unboxed float-array accesses *)
  let get (x : t) k = Array.unsafe_get x k
  let set (x : t) k v = Array.unsafe_set x k v

  (* [Rings.Covariance.mul]:
     (c1*c2, c2*s1 + c1*s2, c2*Q1 + c1*Q2 + s1 s2^T + s2 s1^T). *)
  let mul (a : t) (b : t) ~(into : t) =
    check "mul" a into;
    check "mul" b into;
    if into == a || into == b then invalid_arg "Payload.Cov.mul: destination aliases an operand";
    let d = dim into in
    let ac = get a 0 and bc = get b 0 in
    set into 0 (ac *. bc);
    for i = 1 to d do
      set into i ((bc *. get a i) +. (ac *. get b i))
    done;
    for i = 0 to d - 1 do
      let asi = get a (1 + i) and bsi = get b (1 + i) in
      let row = 1 + d + (i * d) in
      for j = 0 to d - 1 do
        let k = row + j in
        set into k
          ((bc *. get a k)
          +. (ac *. get b k)
          +. (asi *. get b (1 + j))
          +. (bsi *. get a (1 + j)))
      done
    done

  let add (x : t) ~(into : t) =
    check "add" x into;
    for k = 0 to Array.length into - 1 do
      set into k (get into k +. get x k)
    done

  let scale m (x : t) =
    let k = float_of_int m in
    for i = 0 to Array.length x - 1 do
      set x i (k *. get x i)
    done

  (* a loop: [Array.for_all] would box every element *)
  let is_zero (x : t) =
    let k = ref 0 in
    while !k < Array.length x && get x !k = 0.0 do
      incr k
    done;
    !k = Array.length x

  let copy (x : t) ~(into : t) =
    check "copy" x into;
    Array.blit x 0 into 0 (Array.length x)

  (* [Rings.Covariance.of_tuple xs] with [xs] zero outside the owned
     features: c = 1, s = xs, and Q = 0 plus [Mat.ger]'s rank-1 update,
     which skips the rows whose [1.0 *. x_i] is zero (so only owned rows
     can be written). *)
  let of_tuple (owned : (int * int) array) (tuple : Relational.Tuple.t) ~(into : t) =
    let d = dim into in
    Array.fill into 0 (Array.length into) 0.0;
    into.(0) <- 1.0;
    for k = 0 to Array.length owned - 1 do
      let i, pos = owned.(k) in
      into.(1 + i) <- Relational.Value.to_float tuple.(pos)
    done;
    for k = 0 to Array.length owned - 1 do
      let i, _ = owned.(k) in
      let axi = 1.0 *. into.(1 + i) in
      if axi <> 0.0 then begin
        let row = 1 + d + (i * d) in
        for j = 0 to d - 1 do
          into.(row + j) <- 0.0 +. (axi *. into.(1 + j))
        done
      end
    done

  let to_covariance (x : t) : Rings.Covariance.t =
    let d = dim x in
    {
      c = x.(0);
      s = Array.sub x 1 d;
      q = Util.Mat.init d d (fun i j -> x.(1 + d + (i * d) + j));
    }

  let of_covariance (e : Rings.Covariance.t) : t =
    let d = Rings.Covariance.dim e in
    let x = zero d in
    x.(0) <- e.c;
    Array.blit e.s 0 x 1 d;
    for i = 0 to d - 1 do
      for j = 0 to d - 1 do
        x.(1 + d + (i * d) + j) <- Util.Mat.get e.q i j
      done
    done;
    x
end

(* Dimension-agnostic covariance payload: [Zero] and [One] are symbolic so
   that the module needs no static dimension (the dimension is read off the
   first concrete element). [add One One], [neg One] and [smul m One] have no
   dimension to build from and are rejected. *)
module Cov_dyn = struct
  module C = Rings.Covariance

  type t = [ `Zero | `One | `Elem of C.t ]

  let zero = `Zero
  let one = `One

  let add a b =
    match (a, b) with
    | `Zero, x | x, `Zero -> x
    | `One, `Elem e | `Elem e, `One -> `Elem (C.add (C.one (C.dim e)) e)
    | `Elem x, `Elem y -> `Elem (C.add x y)
    | `One, `One -> invalid_arg "Cov_dyn.add: One + One has no dimension"

  let mul a b =
    match (a, b) with
    | `Zero, _ | _, `Zero -> `Zero
    | `One, x | x, `One -> x
    | `Elem x, `Elem y -> `Elem (C.mul x y)

  let neg = function
    | `Zero -> `Zero
    | `Elem e -> `Elem (C.neg e)
    | `One -> invalid_arg "Cov_dyn.neg: One has no dimension"

  let smul m = function
    | `Zero -> `Zero
    | `Elem e -> `Elem (C.smul (float_of_int m) e)
    | `One -> invalid_arg "Cov_dyn.smul: One has no dimension"

  let is_zero = function
    | `Zero -> true
    | `One -> false
    | `Elem e -> C.is_zero e

  let equal a b =
    match (a, b) with
    | `Zero, `Zero | `One, `One -> true
    | `Elem x, `Elem y -> C.equal x y
    | `Zero, `Elem e | `Elem e, `Zero -> C.equal (C.zero (C.dim e)) e
    | `One, `Elem e | `Elem e, `One -> C.equal (C.one (C.dim e)) e
    | `Zero, `One | `One, `Zero -> false

  let to_string = function
    | `Zero -> "0"
    | `One -> "1"
    | `Elem e -> C.to_string e
end

let cov_elem n = function
  | `Zero -> Rings.Covariance.zero n
  | `One -> Rings.Covariance.one n
  | `Elem e -> e
