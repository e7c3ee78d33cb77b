(* The code-optimisation ladder of Figure 6, on the covariance-matrix task.

   AC/DC, LMFAO's precursor, computes the aggregate batch over the join tree
   with none of LMFAO's code optimisations; the figure then adds them one at
   a time. We reproduce the ladder with four implementations of the same
   computation (the full (n+1)^2 covariance batch over the join, without
   materialising it):

     stage 0  baseline      one pass PER AGGREGATE, interpreted attribute
                            access (name lookups and boxing per tuple)
     stage 1  +specialise   one pass per aggregate, positions resolved once
                            per node and tight float inner loops
     stage 2  +sharing      ONE pass for the whole batch using the
                            covariance ring (compound payloads)
     stage 3  +parallel     stage 2 with the scans chunked across domains

   All four return the same covariance triple (asserted by tests). *)

open Relational
module Cov = Rings.Covariance
module Cov_task = Fivm.Cov_task

(* ---- generic bottom-up pass over the join tree with scalar payloads ---- *)

(* One pass computing SUM over the join of [factor rel tuple] products.
   [factor] must attribute each aggregate factor to exactly one relation. *)
let scalar_pass (db : Database.t) (factor : string -> Schema.t -> Tuple.t -> float) =
  let jt = Database.join_tree db in
  let rec view (node : Join_tree.node) : float ref Keypack.Hybrid.t =
    let child_views = List.map (fun c -> (c, view c)) node.children in
    let schema = Relation.schema node.rel in
    let name = Relation.name node.rel in
    let key_positions = Array.of_list (List.map (Schema.position schema) node.key) in
    let own_key = Relation.extractor node.rel key_positions in
    let child_keys =
      List.map
        (fun ((c : Join_tree.node), v) ->
          ( Relation.extractor node.rel
              (Array.of_list (List.map (Schema.position schema) c.key)),
            v ))
        child_views
    in
    let out = Keypack.Hybrid.create 64 in
    Relation.iteri
      (fun i tuple ->
        let rec probe = function
          | [] -> Some 1.0
          | (key_of, v) :: rest -> (
              match Keypack.Hybrid.find_opt v (key_of i) with
              | Some partial -> (
                  match probe rest with
                  | Some acc -> Some (acc *. !partial)
                  | None -> None)
              | None -> None)
        in
        match probe child_keys with
        | None -> ()
        | Some children_product ->
            let contrib = factor name schema tuple *. children_product in
            let key = own_key i in
            (match Keypack.Hybrid.find_opt out key with
            | Some r -> r := !r +. contrib
            | None -> Keypack.Hybrid.add out key (ref contrib)))
      node.rel;
    out
  in
  let root_view = view (Join_tree.tree jt) in
  match Keypack.Hybrid.find_opt root_view (Keypack.P 0) with
  | Some r -> !r
  | None -> 0.0

(* ---- stage 0: interpreted, unshared ---- *)

(* A tiny expression interpreter: what an unspecialised engine executes per
   tuple — recursive dispatch, attribute resolution by name, boxed values. *)
type iexpr = Iconst of float | Iattr of string | Imul of iexpr * iexpr

let rec ieval (schema : Schema.t) (tuple : Tuple.t) = function
  | Iconst x -> Value.Float x
  | Iattr a -> (
      match Schema.position_opt schema a with
      | Some pos -> tuple.(pos)
      | None -> Value.Float 1.0)
  | Imul (e1, e2) ->
      Value.Float
        (Value.to_float (ieval schema tuple e1)
        *. Value.to_float (ieval schema tuple e2))

let stage0_interpreted (db : Database.t) ~features : Cov.t =
  let task = Cov_task.make db ~features in
  let features_arr = Array.of_list features in
  let pairs = Cov_task.aggregate_pairs task in
  (* owner relation per feature, for single-counting of join attributes *)
  let owner = Hashtbl.create 16 in
  List.iter
    (fun rel ->
      List.iter
        (fun (i, _) -> Hashtbl.replace owner features_arr.(i) (Relation.name rel))
        (Cov_task.owned_features task (Relation.name rel)))
    (Database.relations db);
  let totals =
    Array.map
      (fun (i, j) ->
        (* per-relation interpreted expression for this aggregate's factor *)
        let expr_for rel =
          let term idx =
            if idx = 0 then Iconst 1.0
            else
              let attr = features_arr.(idx - 1) in
              if Hashtbl.find owner attr = rel then Iattr attr else Iconst 1.0
          in
          Imul (term i, term j)
        in
        let factor rel schema tuple =
          Value.to_float (ieval schema tuple (expr_for rel))
        in
        ((i, j), scalar_pass db factor))
      pairs
  in
  Cov_task.assemble task (Array.to_list totals)

(* ---- stage 1: + specialisation ---- *)

let stage1_specialised (db : Database.t) ~features : Cov.t =
  let task = Cov_task.make db ~features in
  let pairs = Cov_task.aggregate_pairs task in
  let totals =
    Array.map
      (fun (i, j) ->
        (* resolve the two factor positions per relation ONCE *)
        let positions = Hashtbl.create 8 in
        List.iter
          (fun rel ->
            let name = Relation.name rel in
            let find idx =
              if idx = 0 then None
              else
                List.find_map
                  (fun (f, pos) -> if f = idx - 1 then Some pos else None)
                  (Cov_task.owned_features task name)
            in
            Hashtbl.replace positions name (find i, find j))
          (Database.relations db);
        let factor rel _schema (tuple : Tuple.t) =
          match Hashtbl.find positions rel with
          | None, None -> 1.0
          | Some p, None | None, Some p -> Value.to_float tuple.(p)
          | Some p, Some q -> Value.to_float tuple.(p) *. Value.to_float tuple.(q)
        in
        ((i, j), scalar_pass db factor))
      pairs
  in
  Cov_task.assemble task (Array.to_list totals)

(* ---- stages 2 and 3: + sharing (covariance ring), + parallelism ---- *)

let ring_pass ?(parallel = false) (db : Database.t) (task : Cov_task.t) : Cov.t =
  let jt = Database.join_tree db in
  let rec view (node : Join_tree.node) : Cov.t ref Keypack.Hybrid.t =
    let child_views = List.map (fun c -> (c, view c)) node.children in
    let schema = Relation.schema node.rel in
    let name = Relation.name node.rel in
    let key_positions = Array.of_list (List.map (Schema.position schema) node.key) in
    let own_key = Relation.extractor node.rel key_positions in
    let child_keys =
      List.map
        (fun ((c : Join_tree.node), v) ->
          ( Relation.extractor node.rel
              (Array.of_list (List.map (Schema.position schema) c.key)),
            v ))
        child_views
    in
    let n = Relation.cardinality node.rel in
    let scan lo len =
      (* one lift per scan: it owns a feature vector, and chunks run in
         parallel *)
      let lift = Cov_task.lift_into task name (Relation.columns node.rel) in
      let lifted idx =
        let x = Cov.zero task.Cov_task.dim in
        lift idx ~into:x;
        x
      in
      let out = Keypack.Hybrid.create 64 in
      for idx = lo to lo + len - 1 do
        let rec probe acc = function
          | [] -> Some acc
          | (key_of, v) :: rest -> (
              match Keypack.Hybrid.find_opt v (key_of idx) with
              | Some partial -> probe (Cov.mul acc !partial) rest
              | None -> None)
        in
        match probe (lifted idx) child_keys with
        | None -> ()
        | Some contrib -> (
            let key = own_key idx in
            match Keypack.Hybrid.find_opt out key with
            | Some r -> r := Cov.add !r contrib
            | None -> Keypack.Hybrid.add out key (ref contrib))
      done;
      out
    in
    if parallel && n > 2048 then
      Util.Pool.parallel_chunks n scan
        ~combine:(fun acc v ->
          match acc with
          | None -> Some v
          | Some a ->
              Keypack.Hybrid.iter
                (fun key r ->
                  match Keypack.Hybrid.find_opt a key with
                  | Some r0 -> r0 := Cov.add !r0 !r
                  | None -> Keypack.Hybrid.add a key r)
                v;
              Some a)
        ~zero:None
      |> Option.value ~default:(Keypack.Hybrid.create 1)
    else scan 0 n
  in
  let root_view = view (Join_tree.tree jt) in
  match Keypack.Hybrid.find_opt root_view (Keypack.P 0) with
  | Some r -> !r
  | None -> Cov.zero task.Cov_task.dim

let stage2_shared (db : Database.t) ~features : Cov.t =
  ring_pass ~parallel:false db (Cov_task.make db ~features)

let stage3_parallel (db : Database.t) ~features : Cov.t =
  ring_pass ~parallel:true db (Cov_task.make db ~features)

let stages =
  [
    ("baseline (interpreted, unshared)", stage0_interpreted);
    ("+ specialisation", stage1_specialised);
    ("+ sharing (covariance ring)", stage2_shared);
    ("+ parallelisation", stage3_parallel);
  ]
