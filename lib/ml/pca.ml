(* Principal component analysis from the covariance triple (Section 2.1:
   "Similar aggregates can be derived for ... principal component
   analysis"). The centred covariance matrix is assembled from (c, s, Q)
   as Q/N - (s/N)(s/N)^T — no data pass — and the leading components are
   extracted by power iteration with deflation. *)

open Util
module Cov = Rings.Covariance

(* Centred covariance matrix from the ring triple. *)
let centred_covariance (t : Cov.t) : Mat.t =
  let n = Stdlib.max 1.0 (Cov.count t) in
  let d = Cov.dim t in
  Mat.init d d (fun i j ->
      (Cov.product t i j /. n) -. (Cov.sum t i /. n *. (Cov.sum t j /. n)))

type component = { eigenvalue : float; vector : Vec.t }

(* Top [k] principal components by power iteration + deflation. *)
let components ?(k = 2) ?(iters = 500) (t : Cov.t) : component list
    =
  let cov = centred_covariance t in
  let d = Mat.rows cov in
  let k = Stdlib.min k d in
  let rng = Prng.create 42 in
  let rec extract m remaining acc =
    if remaining = 0 then List.rev acc
    else begin
      let seed = Array.init d (fun _ -> Prng.float_range rng (-1.0) 1.0) in
      let eigenvalue, vector = Mat.power_iteration ~iters m seed in
      (* deflate: m <- m - lambda v v^T *)
      let m' = Mat.copy m in
      Mat.ger ~alpha:(-.eigenvalue) vector vector m';
      extract m' (remaining - 1) ({ eigenvalue; vector } :: acc)
    end
  in
  extract cov k []

(* Fraction of total variance captured by the given components. *)
let explained_variance (t : Cov.t) (comps : component list) =
  let cov = centred_covariance t in
  let total = ref 0.0 in
  for i = 0 to Mat.rows cov - 1 do
    total := !total +. Mat.get cov i i
  done;
  if !total <= 0.0 then 0.0
  else List.fold_left (fun acc c -> acc +. c.eigenvalue) 0.0 comps /. !total

let project (comps : component list) (row : float array) =
  Array.of_list (List.map (fun c -> Vec.dot c.vector row) comps)
