(* The model registry: every Model_intf implementation under its CLI
   selector, mirroring the engine list the aggregate side keeps. The linreg
   variants share one model type and differ only in the optimiser the
   default options pick — closed form refreshes bit-identically from exact
   moments, the gradient methods warm-start. *)

module Intf = Model_intf

(* NB: shadowing [default_options] after [include] is not enough — the
   included [train_from_moments] already closed over the original default,
   so the entry points must be re-bound to thread the new one through. *)
module Linreg_closed = struct
  include Linreg.Model

  let name = "linreg-closed"
  let description = "ridge linear regression, one Cholesky solve of the moments"
  let default_options = { Linreg.ridge = 1e-3; method_ = Linreg.Closed_form }

  let train_from_moments ?(options = default_options) ?warm_start m =
    Linreg.Model.train_from_moments ~options ?warm_start m

  let refresh ?(options = default_options) ~previous m =
    Linreg.Model.refresh ~options ~previous m
end

module Linreg_gd = struct
  include Linreg.Model

  let name = "linreg-gd"

  let description =
    "ridge linear regression, line-searched gradient descent on the moments"

  let default_options =
    { Linreg.ridge = 1e-3; method_ = Linreg.Gradient_descent Linreg.default_gd }

  let train_from_moments ?(options = default_options) ?warm_start m =
    Linreg.Model.train_from_moments ~options ?warm_start m

  let refresh ?(options = default_options) ~previous m =
    Linreg.Model.refresh ~options ~previous m
end

let all : Intf.t list =
  [
    (module Linreg.Model);
    (module Linreg_closed);
    (module Linreg_gd);
    (module Polyreg.Model);
    (module Factorization_machine.Model);
    (module Huber.Model);
  ]

let find = Intf.find all

let find_exn n =
  match find n with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "Models.find_exn: unknown model %s (known: %s)" n
           (String.concat ", " (List.map Intf.name all)))

let decode_packed (r : Relational.Codec.reader) : Intf.packed =
  let n = Relational.Codec.read_str r in
  match find n with
  | Some (module M) -> Intf.Packed ((module M), M.decode r)
  | None -> Relational.Codec.fail ("unknown model " ^ n)

(* How a warm refresh must compare to a cold retrain over the SAME
   statistics: direct solves reproduce bit-identically (under exact input
   arithmetic); gradient descent stops on its gradient tolerance, so warm
   and cold lie in a ball around the unique ridge optimum and their
   predictions within the bound that ball implies; CG runs to 1e-12;
   fm/huber run a FIXED iteration budget of a (possibly non-convex)
   objective, so warm and cold need not meet — they only get a sanity
   envelope on predictions. *)
let refresh_audit (m : Intf.t) :
    [ `Bitwise
    | `Tolerance of float
    | `Bound of Intf.moments -> (string -> Relational.Value.t) -> float ] =
  match Intf.name m with
  | "linreg-closed" | "polyreg" -> `Bitwise
  | "linreg-cg" -> `Tolerance 1e-6
  | "linreg-gd" ->
      let ridge, tolerance =
        match Linreg_gd.default_options with
        | { Linreg.ridge; method_ = Linreg.Gradient_descent p } -> (ridge, p.Linreg.tolerance)
        | _ -> assert false
      in
      `Bound
        (fun moments get ->
          Linreg.gd_prediction_bound ~ridge ~tolerance
            (Lazy.force moments.Intf.covariance) get)
  | _ -> `Tolerance 0.5
