(* F: regression models over factorised joins (the paper's earliest system
   in this line [67, 56]).

   Where LMFAO decomposes the aggregate batch over a join tree of views, F
   evaluates it in one factorised pass: the covariance ring is plugged
   directly into the factorised-join traversal, each feature variable
   lifting its values to (1, x*e_i, x^2*E_ii). Because every variable occurs
   exactly once in a variable order, no ownership bookkeeping is needed.
   This is a second, independently-structured engine for the same
   sufficient statistics — the test suite checks it against both LMFAO and
   the flat computation. *)

open Relational
module Cov = Rings.Covariance

(* Observability ([f.*]): how many value lifts the single factorised pass
   performs — the per-value work of Figure 9's re-mapping. *)
let c_lift_ops = Obs.counter "f.lift_ops"

(* The covariance triple of the numeric [features] over the natural join. *)
let covariance ?(cache = true) (db : Database.t) ~(features : string list) : Cov.t =
  Obs.with_span "f.covariance" @@ fun () ->
  let rels = Database.relations db in
  let order = Factorized.Var_order.of_relations rels in
  let dim = List.length features in
  let index = Hashtbl.create 16 in
  List.iteri (fun i f -> Hashtbl.replace index f i) features;
  let module R = (val Cov.make_ring dim) in
  let lift var v =
    Obs.incr c_lift_ops;
    match Hashtbl.find_opt index var with
    | Some i -> Cov.lift dim i (Value.to_float v)
    | None -> R.one
  in
  Factorized.Fjoin.eval_semiring ~cache (module R) ~lift rels order

(* Ridge linear regression trained from the factorised covariance pass:
   response must be listed among [features]. The triple is wrapped as a
   [Moment.t] and solved by [Linreg.train], so the factorised and LMFAO
   paths share one model type and one weight-assembly code path. *)
let train_linreg ?(ridge = 1e-3) ?cache (db : Database.t) ~(features : string list)
    ~(response : string) : Linreg.model =
  let cov = covariance ?cache db ~features in
  if not (List.mem response features) then
    invalid_arg "F_engine.train_linreg: response not in features";
  let moment = Moment.of_covariance cov ~features ~response:(Some response) in
  let feature =
    Aggregates.Feature.make ~response
      ~continuous:(List.filter (fun f -> f <> response) features)
      ~categorical:[] ()
  in
  Linreg.train ~ridge ~method_:Linreg.Closed_form feature moment
