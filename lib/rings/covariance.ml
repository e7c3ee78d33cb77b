(* The covariance ring (paper Section 5.2).

   Elements are triples (c, s, Q): a scalar count, a vector of sums, and a
   matrix of sums of products, over a fixed feature dimension n:

     SUM(1)        SUM(x_i)        SUM(x_i * x_j)

   Addition is component-wise. Multiplication

     (c1,s1,Q1) * (c2,s2,Q2) =
       (c1*c2,  c2*s1 + c1*s2,  c2*Q1 + c1*Q2 + s1 s2^T + s2 s1^T)

   captures the shared computation across the whole aggregate batch: counts
   scale sums, sums build products. Lifting feature i's value x to
   (1, x*e_i, x^2*E_ii) and taking the ring product across a tuple's features
   yields the tuple's full second-moment contribution; summing over tuples
   yields all (n+1)^2 covariance aggregates in one pass.

   A triple is one unboxed float array of 1 + n + n^2 cells, laid out
   [c | s | Q row-major]. The in-place kernels below are the ring's only
   arithmetic: a view tree runs them on buffers it owns, and every
   persistent operation allocates a fresh array and runs the same kernel,
   so both get the same bits by construction. *)

open Util

type t = float array

(* 1 + n + n^2 = len gives n = floor (sqrt (len - 1)). *)
let dim (x : t) = int_of_float (sqrt (float_of_int (Array.length x - 1)))

let zero n : t = Array.make (1 + n + (n * n)) 0.0

let one n =
  let x = zero n in
  x.(0) <- 1.0;
  x

(* The kernels index unchecked: an operand must have [into]'s length, and
   that must be a triple's, 1 + d + d^2. *)
let check name (x : t) (into : t) =
  let d = dim into in
  if Array.length x <> Array.length into || Array.length into <> 1 + d + (d * d) then
    invalid_arg ("Covariance." ^ name)

(* typed, so the primitives compile to unboxed float-array accesses *)
let get (x : t) k = Array.unsafe_get x k
let set (x : t) k v = Array.unsafe_set x k v

(* ---- in-place kernels ---- *)

let mul_into (a : t) (b : t) ~(into : t) =
  check "mul_into" a into;
  check "mul_into" b into;
  if into == a || into == b then
    invalid_arg "Covariance.mul_into: destination aliases an operand";
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

(* ---- products of operands over disjoint features ----

   In a view tree every feature is owned by one relation, so a product's
   operands cover disjoint feature sets and the product covers their union.
   A plan names, for each operand's features, their positions in the
   product. [mul_disjoint] then writes exactly the bits [mul_into] gives on
   the operands embedded at the product's dimension (+0.0 outside their
   features): it runs the same four addends per cell, in the same order,
   with every product that meets a structural zero written out as the
   signed zero it is ([x *. 0.0]). Those zeros never change a nonzero
   addend, but they decide the sign of a zero cell: -0.0 survives only an
   all-(-0.0) sum, so dropping them would turn some +0.0 cells into -0.0. *)

type disjoint = { pa : int array; pb : int array; n : int }

let disjoint pa pb =
  let n = Array.length pa + Array.length pb in
  let seen = Array.make n false in
  let mark p =
    if p < 0 || p >= n || seen.(p) then invalid_arg "Covariance.disjoint: not a partition";
    seen.(p) <- true
  in
  Array.iter mark pa;
  Array.iter mark pb;
  { pa = Array.copy pa; pb = Array.copy pb; n }

let mul_disjoint { pa; pb; n } (a : t) (b : t) ~(into : t) =
  let da = Array.length pa and db = Array.length pb in
  if
    Array.length a <> 1 + da + (da * da)
    || Array.length b <> 1 + db + (db * db)
    || Array.length into <> 1 + n + (n * n)
  then invalid_arg "Covariance.mul_disjoint";
  if into == a || into == b then
    invalid_arg "Covariance.mul_disjoint: destination aliases an operand";
  let ac = get a 0 and bc = get b 0 in
  (* a count times the other operand's structural zero, and their sum *)
  let za = ac *. 0.0 and zb = bc *. 0.0 in
  let zab = zb +. za in
  let q = 1 + n in
  set into 0 (ac *. bc);
  for i = 0 to da - 1 do
    set into (1 + Array.unsafe_get pa i) ((bc *. get a (1 + i)) +. za)
  done;
  for i = 0 to db - 1 do
    set into (1 + Array.unsafe_get pb i) (zb +. (ac *. get b (1 + i)))
  done;
  (* rows of a's features: a's diagonal block, then the a x b block *)
  for i = 0 to da - 1 do
    let asi = get a (1 + i) in
    let zi = asi *. 0.0 in
    let row = q + (Array.unsafe_get pa i * n) and arow = 1 + da + (i * da) in
    for j = 0 to da - 1 do
      set into
        (row + Array.unsafe_get pa j)
        ((((bc *. get a (arow + j)) +. za) +. zi) +. (0.0 *. get a (1 + j)))
    done;
    for j = 0 to db - 1 do
      set into (row + Array.unsafe_get pb j) ((zab +. (asi *. get b (1 + j))) +. (0.0 *. 0.0))
    done
  done;
  (* rows of b's features: the b x a block, then b's diagonal block *)
  let zab0 = zab +. (0.0 *. 0.0) in
  for i = 0 to db - 1 do
    let bsi = get b (1 + i) in
    let zi = bsi *. 0.0 in
    let row = q + (Array.unsafe_get pb i * n) and brow = 1 + db + (i * db) in
    for j = 0 to da - 1 do
      set into (row + Array.unsafe_get pa j) (zab0 +. (bsi *. get a (1 + j)))
    done;
    for j = 0 to db - 1 do
      set into
        (row + Array.unsafe_get pb j)
        (((zb +. (ac *. get b (brow + j))) +. (0.0 *. get b (1 + j))) +. zi)
    done
  done

let add_into (x : t) ~(into : t) =
  check "add_into" x into;
  for k = 0 to Array.length into - 1 do
    set into k (get into k +. get x k)
  done

let scale m (x : t) =
  let k = float_of_int m in
  for i = 0 to Array.length x - 1 do
    set x i (k *. get x i)
  done

(* Exact structural zero (no tolerance): the test that decides whether a
   maintained view entry may be dropped. Tolerant comparison here would
   discard near-zero-but-real contributions and break bit-identity with a
   from-scratch recompute; [x = 0.0] admits both float zeros, which is right
   because an exactly-cancelled group is indistinguishable from one a
   recompute never saw. A loop: [Array.for_all] would box every cell. *)
let is_zero (x : t) =
  let k = ref 0 in
  while !k < Array.length x && get x !k = 0.0 do
    incr k
  done;
  !k = Array.length x

let copy (x : t) ~(into : t) =
  check "copy" x into;
  Array.blit x 0 into 0 (Array.length x)

(* (1, xs, xs xs^T), the product of the lifts of every feature of one
   tuple, built directly instead of by n-1 ring multiplications. Rows of Q
   whose x_i is zero are skipped and stay 0.0, and the others read
   [0.0 +. x_i *. x_j], which turns a -0.0 product into 0.0. *)
let of_tuple_into (xs : float array) ~(into : t) =
  let d = Array.length xs in
  if Array.length into <> 1 + d + (d * d) then invalid_arg "Covariance.of_tuple_into";
  Array.fill into 0 (Array.length into) 0.0;
  set into 0 1.0;
  Array.blit xs 0 into 1 d;
  for i = 0 to d - 1 do
    let xi = Array.unsafe_get xs i in
    if xi <> 0.0 then begin
      let row = 1 + d + (i * d) in
      for j = 0 to d - 1 do
        set into (row + j) (0.0 +. (xi *. Array.unsafe_get xs j))
      done
    end
  done

(* ---- persistent operations: a fresh array, then the kernel ---- *)

let add a b =
  let r = Array.copy a in
  add_into b ~into:r;
  r

let mul a b =
  let r = zero (dim a) in
  mul_into a b ~into:r;
  r

let of_tuple xs =
  let r = zero (Array.length xs) in
  of_tuple_into xs ~into:r;
  r

(* Lift of feature [i]'s value [x]: the ring image of a single attribute
   value (Figure 10's per-value triples, generalised with the x^2 diagonal). *)
let lift n i x =
  let xs = Array.make n 0.0 in
  xs.(i) <- x;
  of_tuple xs

(* Mutable accumulator: folds tuples (with multiplicities) into a running
   triple by the textbook updates, an axpy for the sums and a rank-1 update
   for the products, without allocating a triple per tuple. Tests use it
   as the flat reference that the ring-based engines are checked
   against. *)
module Acc = struct
  type acc = t

  let create = zero

  let add_tuple (acc : acc) ?(multiplicity = 1.0) xs =
    let d = dim acc in
    acc.(0) <- acc.(0) +. multiplicity;
    for i = 0 to d - 1 do
      acc.(1 + i) <- (multiplicity *. xs.(i)) +. acc.(1 + i)
    done;
    for i = 0 to d - 1 do
      let axi = multiplicity *. xs.(i) in
      if axi <> 0.0 then begin
        let row = 1 + d + (i * d) in
        for j = 0 to d - 1 do
          acc.(row + j) <- acc.(row + j) +. (axi *. xs.(j))
        done
      end
    done

  let freeze (acc : acc) : t = Array.copy acc
end

let same_shape (a : t) (b : t) = Array.length a = Array.length b

let equal ?(eps = 1e-7) a b =
  same_shape a b && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a b

(* Relative comparison: tolerant of accumulation-order float differences on
   large-magnitude sums. *)
let equal_rel ?(eps = 1e-9) a b =
  let close x y = Float.abs (x -. y) <= eps *. (1.0 +. Float.abs x +. Float.abs y) in
  same_shape a b && Array.for_all2 close a b

(* Bitwise equality, the exact counterpart of [equal_rel]: the same
   dimension and every component equal by bit pattern, so one ulp or -0.0
   against 0.0 is a difference. *)
let equal_bits a b =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  same_shape a b && Array.for_all2 same a b

let count (x : t) = x.(0)

let sum x i =
  if i < 0 || i >= dim x then invalid_arg "Covariance.sum";
  x.(1 + i)

let product x i j =
  let n = dim x in
  if i < 0 || i >= n || j < 0 || j >= n then invalid_arg "Covariance.product";
  x.(1 + n + (i * n) + j)

(* The inverse of [moment_matrix]: [f i j] is read once per cell, with
   slot 0 the intercept; product (i-1, j-1) lives at 1 + n + (i-1)n + j-1. *)
let init n f =
  let x = zero n in
  x.(0) <- f 0 0;
  for i = 1 to n do
    x.(i) <- f 0 i
  done;
  for i = 1 to n do
    for j = 1 to n do
      x.(n + ((i - 1) * n) + j) <- f i j
    done
  done;
  x

(* A triple over some features, and the same triple among all [n]: feature
   [i] of [x] is feature [features.(i)] of the embedding. *)
let check_features name n features (x : t) =
  let d = Array.length features in
  if Array.length x <> 1 + d + (d * d) || Array.exists (fun f -> f < 0 || f >= n) features
  then invalid_arg ("Covariance." ^ name)

let embed n features (x : t) =
  check_features "embed" n features x;
  let d = Array.length features in
  let r = zero n in
  r.(0) <- x.(0);
  for i = 0 to d - 1 do
    let row = 1 + n + (features.(i) * n) in
    r.(1 + features.(i)) <- x.(1 + i);
    for j = 0 to d - 1 do
      r.(row + features.(j)) <- x.(1 + d + (i * d) + j)
    done
  done;
  r

let restrict features (x : t) =
  let n = dim x and d = Array.length features in
  let inside = Array.make n false in
  Array.iter
    (fun f ->
      if f < 0 || f >= n || inside.(f) then invalid_arg "Covariance.restrict";
      inside.(f) <- true)
    features;
  let outside_zero = ref true in
  for i = 0 to n - 1 do
    if (not inside.(i)) && x.(1 + i) <> 0.0 then outside_zero := false;
    for j = 0 to n - 1 do
      if not (inside.(i) && inside.(j)) && x.(1 + n + (i * n) + j) <> 0.0 then
        outside_zero := false
    done
  done;
  if not !outside_zero then None
  else begin
    let r = zero d in
    r.(0) <- x.(0);
    for i = 0 to d - 1 do
      r.(1 + i) <- x.(1 + features.(i));
      for j = 0 to d - 1 do
        r.(1 + d + (i * d) + j) <- x.(1 + n + (features.(i) * n) + features.(j))
      done
    done;
    Some r
  end

(* Assemble the (n+1)x(n+1) symmetric moment matrix with an intercept slot
   at index 0: [[c, s^T], [s, Q]]. This is the "sigma" matrix the linear
   regression gradient is built from. *)
let moment_matrix x =
  let n = dim x in
  Mat.init (n + 1) (n + 1) (fun i j ->
      match (i, j) with
      | 0, 0 -> count x
      | 0, j -> sum x (j - 1)
      | i, 0 -> sum x (i - 1)
      | i, j -> product x (i - 1) (j - 1))

(* Binary codec (checkpoint payloads): the dimension, then every cell in
   layout order (count, sums, products row-major), each by its exact bit
   pattern — a decoded triple is bit-identical to the encoded one, which
   the crash-recovery equivalence guarantee depends on. *)
let encode b (x : t) =
  Relational.Codec.u32 b (dim x);
  for k = 0 to Array.length x - 1 do
    Relational.Codec.f64 b x.(k)
  done

(* [read_f64s] checks that all 1 + n + n^2 cells are present before it
   allocates, so a short payload claiming a large dimension fails cheaply. *)
let decode (r : Relational.Codec.reader) : t =
  let at = r.Relational.Codec.pos in
  let n = Relational.Codec.read_u32 r in
  if n > 65536 then Relational.Codec.fail ~offset:at "covariance dim";
  Relational.Codec.read_f64s r (1 + n + (n * n))

let to_string x = Format.asprintf "(c=%g, s=%a)" (count x) Vec.pp (Array.sub x 1 (dim x))

let pp ppf x =
  let n = dim x in
  Format.fprintf ppf "c = %g@\ns = %a@\nQ =@\n%a" (count x) Vec.pp (Array.sub x 1 n) Mat.pp
    (Mat.init n n (product x))

(* First-class ring instance over a fixed dimension, for the generic
   factorised evaluator. Its zero and one are shared, and no operation
   writes an operand. *)
module Make (D : sig
  val n : int
end) : Sig.RING with type t = t = struct
  type nonrec t = t

  let zero = zero D.n
  let one = one D.n
  let add = add
  let mul = mul

  let neg a =
    let r = Array.copy a in
    scale (-1) r;
    r

  let equal = equal ~eps:1e-7
  let to_string = to_string
end

let make_ring n : (module Sig.RING with type t = t) =
  (module Make (struct
    let n = n
  end))
