(* Payloads for incremental view maintenance.

   A view tree owns one buffer per view entry plus per-node scratch, and
   every ring operation writes into a buffer the tree already holds: a
   product into a destination, a sum into its accumulator, a scaling in
   place. A steady-state update therefore allocates no ring elements,
   whatever the payload's size. The ring's one is never materialised: a
   tree reads an empty product's first factor in place instead of
   multiplying by one (multiplying by a concrete one would turn -0.0 sums
   into 0.0). [Rings.Covariance] satisfies [S] itself. *)

module type S = sig
  type t

  val mul_into : t -> t -> into:t -> unit
  val add_into : t -> into:t -> unit
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
  let mul_into a b ~into = into.v <- a.v *. b.v
  let add_into x ~into = into.v <- into.v +. x.v
  let scale m x = x.v <- float_of_int m *. x.v
  let is_zero x = x.v = 0.0
  let copy x ~into = into.v <- x.v
end
