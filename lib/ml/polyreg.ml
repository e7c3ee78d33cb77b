(* Ridge polynomial regression of degree 2 over continuous features
   (Section 2.1: "Similar aggregates can be derived for polynomial
   regression models").

   The quadratic basis phi(x) = (1, x_i ..., x_i * x_j ...) needs the moment
   matrix E[phi phi^T] — the basis-space moments of [Monomial]. Training is
   one closed-form ridge solve over that matrix, so a refresh from updated
   moments is bit-identical to a cold retrain over the same statistics. *)

open Relational
open Util

type monomial = Monomial.t

let basis = Monomial.basis
let monomial_name = Monomial.name
let mono_mul = Monomial.mul
let batch_for = Monomial.batch_for

type model = {
  basis_monomials : monomial list;
  weights : Vec.t;
  response : string;
}

(* Closed-form ridge solve over the basis-space moments: the moment's
   columns are the basis monomials (constant first, named "intercept")
   followed by the response. *)
let train_from_monomial_moments ?(ridge = 1e-2) (m : Moment.t) : model =
  let r =
    match m.Moment.response_col with
    | Some r -> r
    | None -> invalid_arg "Polyreg: moment matrix has no response column"
  in
  let response = m.Moment.columns.(r) in
  let dim = Moment.width m - 1 in
  if r <> dim then invalid_arg "Polyreg: response must be the last column";
  let n = Stdlib.max 1.0 m.Moment.count in
  let a =
    Mat.init dim dim (fun i j ->
        (Mat.get m.Moment.matrix i j /. n) +. if i = j then ridge else 0.0)
  in
  let rhs = Array.init dim (fun i -> Mat.get m.Moment.matrix i r /. n) in
  let basis_monomials =
    List.map
      (fun c ->
        if c = "intercept" then []
        else
          List.map
            (fun part ->
              match String.index_opt part '^' with
              | Some caret ->
                  ( String.sub part 0 caret,
                    int_of_string
                      (String.sub part (caret + 1)
                         (String.length part - caret - 1)) )
              | None -> (part, 1))
            (String.split_on_char '*' c))
      (Array.to_list (Array.sub m.Moment.columns 0 dim))
  in
  { basis_monomials; weights = Mat.solve_spd a rhs; response }

let eval_monomial (m : monomial) (get : string -> float) = Monomial.eval m get

let predict (model : model) (get : string -> float) =
  List.fold_left
    (fun (acc, i) m -> (acc +. (model.weights.(i) *. eval_monomial m get), i + 1))
    (0.0, 0) model.basis_monomials
  |> fst

let rmse_on (model : model) (rel : Relation.t) =
  let schema = Relation.schema rel in
  let n = Relation.cardinality rel in
  if n = 0 then 0.0
  else begin
    let col_of = Hashtbl.create 16 in
    List.iter
      (fun (a : Schema.attr) ->
        Hashtbl.replace col_of a.name
          (Relation.column rel (Schema.position schema a.name)))
      (Schema.attrs schema);
    let row = ref 0 in
    let get a = Column.float_at (Hashtbl.find col_of a) !row in
    let se = ref 0.0 in
    for i = 0 to n - 1 do
      row := i;
      let err = predict model get -. get model.response in
      se := !se +. (err *. err)
    done;
    sqrt (!se /. float_of_int n)
  end

(* ---- binary codec ---- *)

let encode buf (m : model) =
  Codec.i64 buf (List.length m.basis_monomials);
  List.iter
    (fun mono ->
      Codec.i64 buf (List.length mono);
      List.iter
        (fun (a, p) ->
          Codec.str buf a;
          Codec.i64 buf p)
        mono)
    m.basis_monomials;
  Array.iter (Codec.f64 buf) m.weights;
  Codec.str buf m.response

let decode r : model =
  let dim = Codec.read_i64 r in
  let basis_monomials =
    List.init dim (fun _ ->
        List.init (Codec.read_i64 r) (fun _ ->
            let a = Codec.read_str r in
            let p = Codec.read_i64 r in
            (a, p)))
  in
  let weights = Array.init dim (fun _ -> Codec.read_f64 r) in
  let response = Codec.read_str r in
  { basis_monomials; weights; response }

(* ---- the Model_intf adapter ---- *)

type model_options = { ridge : float }

module Model = struct
  let name = "polyreg"

  let description =
    "degree-2 polynomial ridge regression from the basis-space moments"

  type options = model_options

  let default_options = { ridge = 1e-2 }

  type nonrec model = model

  let needs = `Monomial

  (* Closed form: the warm start is accepted for signature uniformity but
     cannot speed up a direct solve. *)
  let train_from_moments ?(options = default_options) ?warm_start
      (m : Model_intf.moments) =
    ignore warm_start;
    train_from_monomial_moments ~ridge:options.ridge
      (Lazy.force m.Model_intf.monomial)

  let refresh ?options ~previous m =
    train_from_moments ?options ~warm_start:previous m

  let predict (m : model) (get : string -> Value.t) =
    predict m (fun a -> Value.to_float (get a))

  let encode = encode
  let decode = decode
end
