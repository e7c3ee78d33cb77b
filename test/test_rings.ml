(* Tests for the (semi)ring layer: ring axioms as qcheck properties for every
   instance, and the covariance ring against direct recomputation (including
   the worked example of Figure 10). *)

module I = Rings.Instances
module Cov = Rings.Covariance
open Util

(* Generic axiom properties for a semiring with a generator. *)
let semiring_axioms (type a) name (module S : Rings.Sig.SEMIRING with type t = a)
    (gen : a QCheck2.Gen.t) =
  let open QCheck2 in
  [
    Test.make ~count:100 ~name:(name ^ ": + commutative") (Gen.pair gen gen)
      (fun (a, b) -> S.equal (S.add a b) (S.add b a));
    Test.make ~count:100 ~name:(name ^ ": + associative") (Gen.triple gen gen gen)
      (fun (a, b, c) -> S.equal (S.add (S.add a b) c) (S.add a (S.add b c)));
    Test.make ~count:100 ~name:(name ^ ": 0 neutral for +") gen (fun a ->
        S.equal (S.add S.zero a) a && S.equal (S.add a S.zero) a);
    Test.make ~count:100 ~name:(name ^ ": * associative") (Gen.triple gen gen gen)
      (fun (a, b, c) -> S.equal (S.mul (S.mul a b) c) (S.mul a (S.mul b c)));
    Test.make ~count:100 ~name:(name ^ ": 1 neutral for *") gen (fun a ->
        S.equal (S.mul S.one a) a && S.equal (S.mul a S.one) a);
    Test.make ~count:100 ~name:(name ^ ": left distributivity")
      (Gen.triple gen gen gen) (fun (a, b, c) ->
        S.equal (S.mul a (S.add b c)) (S.add (S.mul a b) (S.mul a c)));
    Test.make ~count:100 ~name:(name ^ ": right distributivity")
      (Gen.triple gen gen gen) (fun (a, b, c) ->
        S.equal (S.mul (S.add a b) c) (S.add (S.mul a c) (S.mul b c)));
  ]

let ring_axioms (type a) name (module R : Rings.Sig.RING with type t = a)
    (gen : a QCheck2.Gen.t) =
  QCheck2.Test.make ~count:100 ~name:(name ^ ": additive inverse") gen (fun a ->
      R.equal (R.add a (R.neg a)) R.zero)
  :: semiring_axioms name (module R) gen

let small_int_gen = QCheck2.Gen.int_range (-50) 50
let nat_gen = QCheck2.Gen.int_range 0 50
let bool_gen = QCheck2.Gen.bool

(* Small integral floats so float addition is exactly associative. *)
let float_gen = QCheck2.Gen.map float_of_int (QCheck2.Gen.int_range (-20) 20)

(* --- covariance ring --- *)

let dim = 3

module CovRing = Cov.Make (struct
  let n = dim
end)

let cov_gen =
  (* triples built from random tuples: closed under the ring operations used *)
  QCheck2.Gen.(
    let tuple = array_size (return dim) (map float_of_int (int_range (-5) 5)) in
    let base =
      oneof
        [
          map Cov.of_tuple tuple;
          map (fun (i, x) -> Cov.lift dim (abs i mod dim) (float_of_int x))
            (pair small_int nat_gen);
          return (Cov.zero dim);
          return (Cov.one dim);
        ]
    in
    map
      (fun (a, b) -> Cov.add a b)
      (pair base base))

(* the covariance triple computed naively from a list of feature tuples *)
let cov_of_rows rows =
  let acc = Cov.Acc.create dim in
  List.iter (fun r -> Cov.Acc.add_tuple acc r) rows;
  Cov.Acc.freeze acc

let test_of_tuple_matches_lift_product () =
  (* product of per-feature lifts = of_tuple *)
  let xs = [| 2.0; -3.0; 5.0 |] in
  let lifted =
    Array.to_list (Array.mapi (fun i x -> Cov.lift dim i x) xs)
    |> List.fold_left Cov.mul (Cov.one dim)
  in
  Alcotest.(check bool) "lift product = of_tuple" true
    (Cov.equal lifted (Cov.of_tuple xs))

let test_add_is_union () =
  (* adding triples of two datasets = triple of their union *)
  let rows1 = [ [| 1.0; 2.0; 3.0 |]; [| 0.0; 1.0; -1.0 |] ] in
  let rows2 = [ [| 4.0; 0.0; 2.0 |] ] in
  let got = Cov.add (cov_of_rows rows1) (cov_of_rows rows2) in
  Alcotest.(check bool) "union" true (Cov.equal got (cov_of_rows (rows1 @ rows2)))

let test_mul_is_cartesian_product () =
  (* The ring product of the triples of two datasets over DISJOINT feature
     sets equals the triple of their Cartesian product. Features 0 in set A;
     features 1,2 in set B (unused features are zero). *)
  let a_rows = [ [| 2.0; 0.0; 0.0 |]; [| 3.0; 0.0; 0.0 |] ] in
  let b_rows = [ [| 0.0; 1.0; 4.0 |]; [| 0.0; 5.0; 6.0 |]; [| 0.0; 7.0; 8.0 |] ] in
  let product_rows =
    List.concat_map
      (fun a -> List.map (fun b -> Array.mapi (fun i x -> x +. b.(i)) a) b_rows)
      a_rows
  in
  (* triples restricted to each side use lifts of only their own features *)
  let side rows feats =
    List.fold_left
      (fun acc r ->
        Cov.add acc
          (List.fold_left
             (fun t i -> Cov.mul t (Cov.lift dim i r.(i)))
             (Cov.one dim) feats))
      (Cov.zero dim) rows
  in
  let got = Cov.mul (side a_rows [ 0 ]) (side b_rows [ 1; 2 ]) in
  Alcotest.(check bool) "cartesian" true
    (Cov.equal got (cov_of_rows product_rows))

(* Figure 10: the factorised fragment for dish = burger.
   Items side: patty 6, bun 2, onion 2 -> (3, 10, 0)
   Orders side: (Monday, Elise), (Friday, Elise) -> (2, 0, 0)
   product -> (6, 20, 0); with the dish lift contributing price*dish terms. *)
let test_figure10_numbers () =
  (* 2-dimensional ring: feature 0 = price, feature 1 = f(dish) one-hot-ish *)
  let d = 2 in
  let lift_price x = Cov.lift d 0 x in
  let items = [ 6.0; 2.0; 2.0 ] in
  let items_triple =
    List.fold_left (fun acc p -> Cov.add acc (lift_price p)) (Cov.zero d) items
  in
  Alcotest.(check (float 1e-9)) "items count" 3.0 (Cov.count items_triple);
  Alcotest.(check (float 1e-9)) "items sum" 10.0 (Cov.sum items_triple 0);
  let orders_triple = Cov.add (Cov.one d) (Cov.one d) in
  let burger_subtree = Cov.mul orders_triple items_triple in
  Alcotest.(check (float 1e-9)) "count 6" 6.0 (Cov.count burger_subtree);
  Alcotest.(check (float 1e-9)) "sum 20" 20.0 (Cov.sum burger_subtree 0);
  (* multiply by the lift of f(burger) = 1 on feature 1 *)
  let with_dish = Cov.mul burger_subtree (Cov.lift d 1 1.0) in
  (* SUM(price * dish) entry (0,1) should be 20 * f(burger) = 20 *)
  Alcotest.(check (float 1e-9)) "price*dish = 20" 20.0
    (Cov.product with_dish 0 1)

let test_moment_matrix_layout () =
  let t = cov_of_rows [ [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] ] in
  let m = Cov.moment_matrix t in
  Alcotest.(check (float 1e-9)) "count slot" 2.0 (Mat.get m 0 0);
  Alcotest.(check (float 1e-9)) "sum x0" 5.0 (Mat.get m 0 1);
  Alcotest.(check (float 1e-9)) "x0*x1" (2.0 +. 20.0) (Mat.get m 1 2);
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric m)

let test_acc_matches_functional () =
  let rng = Prng.create 99 in
  let rows =
    List.init 50 (fun _ -> Array.init dim (fun _ -> Prng.float_range rng (-2.0) 2.0))
  in
  let functional =
    List.fold_left (fun acc r -> Cov.add acc (Cov.of_tuple r)) (Cov.zero dim) rows
  in
  Alcotest.(check bool) "acc = fold" true
    (Cov.equal ~eps:1e-6 functional (cov_of_rows rows))

(* Bitwise equality accepts a copy and rejects every single-bit-class
   difference a tolerant comparison would forgive. Cells of the flat
   layout at dimension 3: c at 0, s at 1..3, Q(i, j) at 4 + 3i + j. *)
let test_equal_bits_rejects () =
  let base = Cov.of_tuple [| 1.5; 0.0; 2.25 |] in
  let edit f =
    let c = Cov.add base (Cov.zero 3) in
    f c;
    c
  in
  Alcotest.(check bool) "a copy is equal" true (Cov.equal_bits base (edit ignore));
  List.iter
    (fun (what, other) ->
      Alcotest.(check bool) (what ^ " rejected") false (Cov.equal_bits base other))
    [
      ("one-ulp sum", edit (fun c -> c.(1) <- Float.succ 1.5));
      ("-0.0 sum", edit (fun c -> c.(2) <- -0.0));
      ("one-ulp product", edit (fun c -> c.(10) <- Float.pred c.(10)));
      ("count", edit (fun c -> c.(0) <- 2.0));
      ("dimension", Cov.of_tuple [| 1.5; 0.0 |]);
    ]

(* Persistent operations and a ring instance allocate every result: no
   operand, and neither the instance's shared zero nor its one, is written
   or handed out, so writing into a result disturbs nothing. *)
let test_persistent_ops_write_nothing () =
  let module R = (val Cov.make_ring dim) in
  let a = Cov.of_tuple [| 1.5; -0.0; 2.25 |] and b = Cov.lift dim 1 3.0 in
  let xs = [| 0.5; 0.0; -4.0 |] in
  let operands = [ a; b; R.zero; R.one; xs ] in
  let kept = List.map Array.copy operands in
  let results =
    [
      R.add a b; R.mul a b; R.neg a; R.add R.zero a; R.add a R.zero; R.mul R.one a;
      R.mul a R.one; R.mul R.zero a; R.add R.zero R.zero; R.mul R.one R.one;
      Cov.add a b; Cov.mul a b; Cov.of_tuple xs; Cov.lift dim 2 xs.(2);
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "a fresh result" false (List.exists (fun o -> r == o) operands);
      Array.fill r 0 (Array.length r) nan)
    results;
  List.iter2
    (fun o k -> Alcotest.(check bool) "operand kept its bits" true (Cov.equal_bits o k))
    operands kept;
  Alcotest.(check bool) "zero is zero" true (Cov.equal_bits R.zero (Cov.zero dim));
  Alcotest.(check bool) "one is one" true (Cov.equal_bits R.one (Cov.one dim))

(* The kernels index unchecked, so they refuse any buffer whose length is
   no triple's: 5 cells would read as dimension 2, which needs 7. *)
let test_kernels_refuse_bad_lengths () =
  let bad = Array.make 5 1.0 and into = Array.make 5 0.0 in
  let refused what f =
    Alcotest.(check bool) (what ^ " refused") true
      (match f () with exception Invalid_argument _ -> true | () -> false)
  in
  refused "mul_into" (fun () -> Cov.mul_into bad bad ~into);
  refused "add_into" (fun () -> Cov.add_into bad ~into);
  refused "copy" (fun () -> Cov.copy bad ~into);
  refused "of_tuple_into" (fun () -> Cov.of_tuple_into [| 1.0; 2.0 |] ~into);
  refused "a dimension mismatch" (fun () -> Cov.add_into (Cov.zero 2) ~into:(Cov.zero 3))

(* [mul_disjoint] against [mul_into] on the operands embedded at full
   dimension, bit for bit on every cell of the product: random disjoint
   feature sets in dimensions 1-12 (some features in neither operand),
   cells drawn among +0.0, -0.0, negatives and other values, both operand
   orders, and operands scaled by -1 as a delete scales its lift. The
   dense product's cells outside the union must be zeros. *)
let disjoint_product_matches_dense =
  let open QCheck2.Gen in
  let cell =
    frequency
      [
        (3, pure 0.0);
        (3, pure (-0.0));
        (3, map (fun k -> float_of_int k /. 4.0) (int_range (-8) 8));
        (1, float_range (-3.0) 3.0);
      ]
  in
  let triple d = array_repeat (1 + d + (d * d)) cell in
  let gen =
    int_range 1 12 >>= fun n ->
    array_repeat n (int_range 0 2) >>= fun sides ->
    let count side = Array.fold_left (fun k s -> if s = side then k + 1 else k) 0 sides in
    quad (pure sides) (triple (count 0)) (triple (count 1)) (pair bool bool)
  in
  let print (sides, a, b, (na, nb)) =
    let arr xs = String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") xs)) in
    Printf.sprintf "sides [%s]\na [%s]\nb [%s]\nnegated %b %b"
      (String.concat "; " (Array.to_list (Array.map string_of_int sides)))
      (arr a) (arr b) na nb
  in
  QCheck2.Test.make ~count:2000 ~print
    ~name:"mul_disjoint = mul_into on embedded operands (bitwise)" gen
    (fun (sides, a, b, (na, nb)) ->
      let n = Array.length sides in
      let feats side =
        Array.of_list (List.filter (fun f -> sides.(f) = side) (List.init n Fun.id))
      in
      let af = feats 0 and bf = feats 1 in
      let union = Array.of_list (List.filter (fun f -> sides.(f) < 2) (List.init n Fun.id)) in
      let at fs =
        Array.map (fun f -> Option.get (Array.find_index (( = ) f) union)) fs
      in
      let a = Array.copy a and b = Array.copy b in
      if na then Cov.scale (-1) a;
      if nb then Cov.scale (-1) b;
      let agrees x xf y yf =
        let into = Cov.zero (Array.length union) in
        Cov.mul_disjoint (Cov.disjoint (at xf) (at yf)) x y ~into;
        match Cov.restrict union (Cov.mul (Cov.embed n xf x) (Cov.embed n yf y)) with
        | Some dense -> Cov.equal_bits dense into
        | None -> false
      in
      agrees a af b bf && agrees b bf a af)

(* Plans must partition the product's features; products check sizes and
   aliases like [mul_into]. *)
let test_disjoint_refusals () =
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  refused "an overlap" (fun () -> ignore (Cov.disjoint [| 0; 1 |] [| 1 |]));
  refused "a gap" (fun () -> ignore (Cov.disjoint [| 0 |] [| 2 |]));
  let plan = Cov.disjoint [| 1 |] [| 0; 2 |] in
  let a = Cov.zero 1 and b = Cov.zero 2 and into = Cov.zero 3 in
  Cov.mul_disjoint plan a b ~into;
  refused "swapped operands" (fun () -> Cov.mul_disjoint plan b a ~into);
  refused "a short destination" (fun () -> Cov.mul_disjoint plan a b ~into:(Cov.zero 2));
  let c = Cov.zero 3 in
  refused "an alias" (fun () -> Cov.mul_disjoint (Cov.disjoint [| 0; 1; 2 |] [||]) c (Cov.one 0) ~into:c);
  Alcotest.(check bool) "restrict refuses a nonzero cell outside" true
    (Cov.restrict [| 0 |] (Cov.lift 2 1 3.0) = None);
  Alcotest.(check bool) "embed then restrict" true
    (match Cov.restrict [| 2; 0 |] (Cov.embed 3 [| 2; 0 |] (Cov.of_tuple [| 1.5; -2.0 |])) with
    | Some x -> Cov.equal_bits x (Cov.of_tuple [| 1.5; -2.0 |])
    | None -> false)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "rings"
    [
      ("bool-semiring", List.map qcheck (semiring_axioms "bool" (module I.Bool) bool_gen));
      ("nat-semiring", List.map qcheck (semiring_axioms "nat" (module I.Nat) nat_gen));
      ("Z-ring", List.map qcheck (ring_axioms "Z" (module I.Z) small_int_gen));
      ("R-ring", List.map qcheck (ring_axioms "R" (module I.R) float_gen));
      ( "min-plus",
        List.map qcheck (semiring_axioms "min-plus" (module I.Min_plus) float_gen) );
      ( "max-plus",
        List.map qcheck (semiring_axioms "max-plus" (module I.Max_plus) float_gen) );
      ( "covariance-ring-axioms",
        List.map qcheck (ring_axioms "cov" (module CovRing) cov_gen) );
      ( "covariance-ring-semantics",
        [
          Alcotest.test_case "lift product = of_tuple" `Quick
            test_of_tuple_matches_lift_product;
          Alcotest.test_case "add = dataset union" `Quick test_add_is_union;
          Alcotest.test_case "mul = cartesian product" `Quick
            test_mul_is_cartesian_product;
          Alcotest.test_case "Figure 10 numbers" `Quick test_figure10_numbers;
          Alcotest.test_case "moment matrix layout" `Quick test_moment_matrix_layout;
          Alcotest.test_case "accumulator = functional fold" `Quick
            test_acc_matches_functional;
          Alcotest.test_case "equal_bits rejects any bit difference" `Quick
            test_equal_bits_rejects;
          Alcotest.test_case "persistent operations write nothing" `Quick
            test_persistent_ops_write_nothing;
          Alcotest.test_case "kernels refuse bad lengths" `Quick test_kernels_refuse_bad_lengths;
        ] );
      ( "covariance-disjoint-products",
        [
          qcheck disjoint_product_matches_dense;
          Alcotest.test_case "plans, sizes and aliases refused" `Quick test_disjoint_refusals;
        ] );
    ]
