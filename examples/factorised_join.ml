(* The paper's Section 5.1 / 5.2 worked example (Figures 7-10): Orders,
   Dish, Items; the factorised join; COUNT and SUM aggregates evaluated in
   one pass with different semirings; the covariance-ring triples.

   Run with:  dune exec examples/factorised_join.exe *)

open Relational
module VO = Factorized.Var_order
module Fjoin = Factorized.Fjoin
module Frep = Factorized.Frep
module Fagg = Factorized.Faggregate
module Cov = Rings.Covariance

let str s = Value.Str s
let flt x = Value.Float x

let () =
  (* Figure 7: the example database *)
  let orders =
    Relation.of_list "Orders"
      (Schema.make [ ("customer", TStr); ("day", TStr); ("dish", TStr) ])
      [
        [| str "Elise"; str "Monday"; str "burger" |];
        [| str "Elise"; str "Friday"; str "burger" |];
        [| str "Steve"; str "Friday"; str "hotdog" |];
        [| str "Joe"; str "Friday"; str "hotdog" |];
      ]
  in
  let dish =
    Relation.of_list "Dish"
      (Schema.make [ ("dish", TStr); ("item", TStr) ])
      [
        [| str "burger"; str "patty" |]; [| str "burger"; str "onion" |];
        [| str "burger"; str "bun" |]; [| str "hotdog"; str "bun" |];
        [| str "hotdog"; str "onion" |]; [| str "hotdog"; str "sausage" |];
      ]
  in
  let items =
    Relation.of_list "Items"
      (Schema.make [ ("item", TStr); ("price", TFloat) ])
      [
        [| str "patty"; flt 6.0 |]; [| str "onion"; flt 2.0 |];
        [| str "bun"; flt 2.0 |]; [| str "sausage"; flt 4.0 |];
      ]
  in
  let rels = [ orders; dish; items ] in

  (* the flat join (Figure 7, right) *)
  let join = Ops.natural_join_all rels in
  Printf.printf "flat join: %d tuples x %d attributes = %d values\n"
    (Relation.cardinality join)
    (Schema.arity (Relation.schema join))
    (Relation.value_count join);

  (* Figure 8: variable order and factorised join *)
  let order = VO.of_relations rels in
  Format.printf "\nvariable order (vars adorned with their keys):@.%a@." VO.pp order;
  let frep = Fjoin.factorize rels order in
  Format.printf "\nfactorised join:@.%a@." Frep.pp frep;
  Printf.printf "\nfactorised size: %d values (flat: %d)\n"
    (Frep.value_count frep) (Relation.value_count join);

  (* Figure 9 left: COUNT by mapping every value to 1 in the nat semiring *)
  Printf.printf "\nCOUNT over the f-rep (nat semiring):  %d\n" (Fagg.count frep);

  (* Figure 9 right: SUM(price) GROUP BY dish *)
  Printf.printf "SUM(price) GROUP BY dish:\n";
  List.iter
    (fun (key, v) ->
      Printf.printf "  %s -> %g\n"
        (String.concat ","
           (List.map (fun (a, x) -> a ^ "=" ^ Value.to_string x) key))
        v)
    (Fagg.sum_grouped ~group_by:[ "dish" ] ~vars:[ "price" ] frep);

  (* Figure 10: the covariance ring evaluates SUM(1), SUM(price) and
     SUM(price * price) together, sharing counts into sums into products *)
  let module R = (val Cov.make_ring 1) in
  let lift var v = if var = "price" then Cov.lift 1 0 (Value.to_float v) else R.one in
  let triple = Fagg.eval (module R) ~lift frep in
  Printf.printf
    "\ncovariance-ring triple over the f-rep:\n  count = %g, SUM(price) = %g, SUM(price^2) = %g\n"
    (Cov.count triple) (Cov.sum triple 0) (Cov.product triple 0 0)
