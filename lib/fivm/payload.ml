(* Payloads for incremental view maintenance.

   A view tree owns one buffer per view entry plus per-node scratch, and
   every ring operation writes into a buffer the tree already holds: a
   product into a destination, a sum into its accumulator, a scaling in
   place. A steady-state update therefore allocates no ring elements,
   whatever the payload's size. The ring's one is never materialised: a
   tree reads an empty product's first factor in place instead of
   multiplying by one (multiplying by a concrete one would turn -0.0 sums
   into 0.0).

   A buffer has a shape: for the covariance ring, the features its triple
   covers. A view-tree node's buffers cover the features owned in its
   subtree, so a product only ever meets operands over disjoint features,
   and its plan is made once, when the tree is built. *)

module type S = sig
  type t
  type shape

  val union : shape -> shape -> shape
  val zero : shape -> t

  type product

  val product : shape -> shape -> product
  val mul_into : product -> t -> t -> into:t -> unit
  val add_into : t -> into:t -> unit
  val scale : int -> t -> unit
  val is_zero : t -> bool
  val copy : t -> into:t -> unit
end

(* A flat float record, so writes store the float unboxed. *)
module Float = struct
  type t = { mutable v : float }
  type shape = unit
  type product = unit

  let union () () = ()
  let zero () = { v = 0.0 }
  let product () () = ()
  let make v = { v }
  let get x = x.v
  let set x v = x.v <- v
  let mul_into () a b ~into = into.v <- a.v *. b.v
  let add_into x ~into = into.v <- into.v +. x.v
  let scale m x = x.v <- float_of_int m *. x.v
  let is_zero x = x.v = 0.0
  let copy x ~into = into.v <- x.v
end

module Cov = struct
  module C = Rings.Covariance

  type t = C.t
  type shape = int array
  type product = C.disjoint

  (* the sorted merge of two disjoint ascending index sets *)
  let union a b =
    let u = Array.append a b in
    Array.sort compare u;
    u

  let zero s = C.zero (Array.length s)

  (* each operand's features, located in the union *)
  let product a b =
    let u = union a b in
    let at s =
      Array.map
        (fun f ->
          match Array.find_index (( = ) f) u with
          | Some p -> p
          | None -> assert false (* [u] holds every feature of [s] *))
        s
    in
    C.disjoint (at a) (at b)

  let mul_into = C.mul_disjoint
  let add_into = C.add_into
  let scale = C.scale
  let is_zero = C.is_zero
  let copy = C.copy
end
