(* A database: a named collection of relations plus the feature-extraction
   query they participate in (their natural join), with size accounting used
   throughout the experiments. *)

type chunks = { seq : Relation.t Seq.t; release : Relation.t -> unit }

type t = {
  name : string;
  relations : Relation.t list;
  (* Out-of-core relations: name -> chunk sequence. A streamed relation's
     entry in [relations] is a STUB — correct name, schema and cardinality
     (so planners cost and order it normally) but no resident cells; engines
     that find a stream here must scan via the chunk sequence and must never
     read the stub's columns. *)
  streams : (string, chunks) Hashtbl.t;
}

let check_distinct relations =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let n = Relation.name r in
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Database.create: duplicate relation %s" n);
      Hashtbl.add seen n ())
    relations

let c_clustered = Obs.counter "relational.clustered_rows"

(* Cluster each relation of an acyclic schema on its join key with its
   largest neighbour in the join tree (ties to the first by name), with
   the key's attributes in the relation's own order — the order in which
   the view toward that neighbour packs them. A scan of the relation then
   meets that view's keys in increasing order, and so does the
   neighbour's scan when the neighbour is clustered on the same edge, as
   the two largest relations are. *)
let cluster relations =
  let big r = Relation.cardinality r >= 2 in
  if List.length relations >= 2 && List.exists big relations then
    match Join_tree.build relations with
    | exception Join_tree.Cyclic -> ()
    | jt ->
        List.iter
          (fun r ->
            let schema = Relation.schema r in
            let keyed =
              List.filter_map
                (fun (n : Join_tree.node) ->
                  match Schema.common schema (Relation.schema n.rel) with
                  | [] -> None
                  | key -> Some (Relation.cardinality n.rel, key))
                (Join_tree.tree ~root:(Relation.name r) jt).children
            in
            let largest =
              List.fold_left
                (fun acc (c, key) ->
                  match acc with Some (c', _) when c' >= c -> acc | _ -> Some (c, key))
                None keyed
            in
            match largest with
            | Some (_, key) when big r ->
                if Relation.cluster r (Array.of_list (Schema.positions schema key)) then
                  Obs.add c_clustered (Relation.cardinality r)
            | _ -> ())
          relations

let create name relations =
  check_distinct relations;
  cluster relations;
  { name; relations; streams = Hashtbl.create 4 }

let create_streamed name entries =
  let relations = List.map fst entries in
  check_distinct relations;
  let streams = Hashtbl.create 4 in
  List.iter
    (fun (r, chunks) ->
      match chunks with
      | Some c -> Hashtbl.replace streams (Relation.name r) c
      | None -> ())
    entries;
  { name; relations; streams }

let stream t rel_name = Hashtbl.find_opt t.streams rel_name
let streamed_names t = Hashtbl.fold (fun n _ acc -> n :: acc) t.streams []

let name t = t.name
let relations t = t.relations

let relation t rel_name =
  match List.find_opt (fun r -> Relation.name r = rel_name) t.relations with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Database.relation: unknown %s" rel_name)

let total_cardinality t =
  List.fold_left (fun acc r -> acc + Relation.cardinality r) 0 t.relations

let total_value_count t =
  List.fold_left (fun acc r -> acc + Relation.value_count r) 0 t.relations

let total_csv_size t =
  List.fold_left (fun acc r -> acc + Relation.csv_size r) 0 t.relations

let join_tree t = Join_tree.build t.relations

(* The feature-extraction query result, fully materialised (the
   structure-agnostic path of Figure 2). Join order follows a leaf-to-root
   traversal of the join tree so intermediate results stay join-connected. *)
let materialise_join t =
  let jt = join_tree t in
  let rec order (node : Join_tree.node) =
    node.rel :: List.concat_map order node.children
  in
  Ops.natural_join_all ~name:(t.name ^ "_join") (order (Join_tree.tree jt))

let attribute_names t =
  List.sort_uniq compare
    (List.concat_map (fun r -> Schema.names (Relation.schema r)) t.relations)

let pp ppf t =
  Format.fprintf ppf "database %s:@\n" t.name;
  List.iter
    (fun r ->
      Format.fprintf ppf "  %s%a: %d tuples@\n" (Relation.name r) Schema.pp
        (Relation.schema r) (Relation.cardinality r))
    t.relations
