(* Mutable base-relation storage for IVM: per relation, a Z-multiset of
   tuples plus hash indexes on every join key shared with a join-tree
   neighbour. All three maintenance strategies read this storage; updates are
   applied once per delta, after the strategies have computed their view
   deltas against the pre-update state.

   Updates arrive as boxed tuples (the streaming edge), but both the
   multiset and the indexes hash [Keypack] keys: join keys over in-range
   int attributes pack into immediate ints, so the per-update probes hash
   ints rather than boxed tuple arrays.

   Layout: each live distinct tuple is ONE [entry]. It sits in the
   storage-wide live chain (insertion order, oldest first from the chain
   sentinel) and, for index [i], in that index's bucket for its key through
   [links.(2i)] (next, towards older) and [links.(2i+1)] (prev). A bucket is
   a cyclic list through a sentinel entry, and a new tuple is linked right
   after the sentinel, so bucket walks run newest first. That order is the
   order downstream float accumulation sees, and [dump] replays the chain
   oldest first so a restored storage rebuilds every bucket in the same
   order. An insert links in O(#indexes); a delete to zero unlinks in
   O(#indexes), rewriting only its neighbours' links and allocating the
   same whatever the bucket sizes; a multiplicity change that stays
   non-zero keeps the tuple's place. *)

open Relational
module Hybrid = Keypack.Hybrid

type entry = {
  rel : string;
  tuple : Tuple.t; (* as first inserted *)
  mutable mult : int; (* never 0 while linked *)
  mutable older : entry; (* live chain *)
  mutable newer : entry;
  links : entry array; (* per index: next at 2i, prev at 2i+1 *)
}

type index = {
  neighbour : string;
  positions : int array; (* key positions in this schema *)
  buckets : entry Hybrid.t; (* key -> bucket sentinel *)
}

type node = {
  name : string;
  schema : Schema.t;
  all_positions : int array; (* identity; whole-tuple key for [tuples] *)
  tuples : entry Hybrid.t; (* whole-tuple key -> live entry *)
  indexes : index array;
  neighbours : string list; (* [indexes]' neighbours, same order *)
}

type t = {
  nodes : (string, node) Hashtbl.t;
  jt : Join_tree.t;
  live : entry; (* chain sentinel: [live.newer] oldest, [live.older] newest *)
  mutable total : int; (* sum of |multiplicity| over live entries *)
}

let rec nil =
  { rel = ""; tuple = [||]; mult = 0; older = nil; newer = nil; links = [||] }

(* A sentinel linked to itself in the chain and in every index slot. *)
let sentinel width =
  let s = { nil with links = Array.make width nil } in
  s.older <- s;
  s.newer <- s;
  Array.fill s.links 0 width s;
  s

(* Undirected neighbour map from the join tree (via the default rooting plus
   reversal; every edge appears in both directions). *)
let neighbour_edges jt =
  let edges = ref [] in
  let rec walk (n : Join_tree.node) parent =
    (match parent with
    | Some p ->
        edges := (Relation.name n.rel, p) :: (p, Relation.name n.rel) :: !edges
    | None -> ());
    List.iter (fun c -> walk c (Some (Relation.name n.rel))) n.children
  in
  walk (Join_tree.tree jt) None;
  !edges

let create (db : Database.t) =
  let jt = Database.join_tree db in
  let edges = neighbour_edges jt in
  let nodes = Hashtbl.create 8 in
  List.iter
    (fun rel ->
      let name = Relation.name rel in
      let schema = Relation.schema rel in
      let indexes =
        List.filter_map
          (fun (a, b) ->
            if a <> name then None
            else
              let other = Join_tree.relation_by_name jt b in
              (* sorted so both endpoints of an edge agree on key order *)
              let key =
                List.sort compare (Schema.common schema (Relation.schema other))
              in
              Some
                {
                  neighbour = b;
                  positions = Array.of_list (List.map (Schema.position schema) key);
                  buckets = Hybrid.create 64;
                })
          edges
      in
      Hashtbl.replace nodes name
        {
          name;
          schema;
          all_positions = Array.init (Schema.arity schema) Fun.id;
          tuples = Hybrid.create 256;
          indexes = Array.of_list indexes;
          neighbours = List.map (fun ix -> ix.neighbour) indexes;
        })
    (Database.relations db);
  { nodes; jt; live = sentinel 0; total = 0 }

let node t name =
  match Hashtbl.find_opt t.nodes name with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Storage.node: unknown relation %s" name)

let schema (n : node) = n.schema
let neighbours (n : node) = n.neighbours
let tuple_key (n : node) tuple = Keypack.key_of_tuple n.all_positions tuple

let multiplicity (n : node) tuple =
  match Hybrid.find_opt n.tuples (tuple_key n tuple) with
  | Some e -> e.mult
  | None -> 0

let index_of (n : node) ~neighbour caller =
  let rec go i =
    if i = Array.length n.indexes then invalid_arg (caller ^ ": not a neighbour")
    else if n.indexes.(i).neighbour = neighbour then i
    else go (i + 1)
  in
  go 0

(* A resolved index: the index and its [links] slot (next at [slot]). *)
type edge = { ix : index; slot : int }

let edge_of (n : node) ~neighbour caller =
  let i = index_of n ~neighbour caller in
  { ix = n.indexes.(i); slot = 2 * i }

let edge n ~neighbour = edge_of n ~neighbour "Storage.edge"

(* Fold over the live tuples joining with [key] through the edge's index,
   newest first. [f] must not update the storage. *)
let fold_edge { ix; slot } (key : Keypack.key) f init =
  match Hybrid.find_opt ix.buckets key with
  | None -> init
  | Some s ->
      let rec go e acc = if e == s then acc else go e.links.(slot) (f e.tuple e.mult acc) in
      go s.links.(slot) init

let edge_key { ix; _ } tuple : Keypack.key = Keypack.key_of_tuple ix.positions tuple

let fold_matching n ~neighbour key f init =
  fold_edge (edge_of n ~neighbour "Storage.fold_matching") key f init

let key_for n ~neighbour tuple = edge_key (edge_of n ~neighbour "Storage.key_for") tuple

let insert t (n : node) tk (u : Delta.update) =
  let k = Array.length n.indexes in
  let live = t.live in
  let e =
    {
      rel = n.name;
      tuple = u.tuple;
      mult = u.multiplicity;
      older = live.older;
      newer = live;
      links = Array.make (2 * k) nil;
    }
  in
  live.older.newer <- e;
  live.older <- e;
  Hybrid.replace n.tuples tk e;
  for i = 0 to k - 1 do
    let ix = n.indexes.(i) in
    let key = Keypack.key_of_tuple ix.positions u.tuple in
    let s =
      match Hybrid.find_opt ix.buckets key with
      | Some s -> s
      | None ->
          let s = sentinel (2 * k) in
          Hybrid.add ix.buckets key s;
          s
    in
    let first = s.links.(2 * i) in
    e.links.(2 * i) <- first;
    e.links.((2 * i) + 1) <- s;
    first.links.((2 * i) + 1) <- e;
    s.links.(2 * i) <- e
  done

(* Unlink [e] everywhere; a bucket left empty (its sentinel was both of [e]'s
   neighbours) leaves its index. *)
let remove (n : node) tk e =
  Hybrid.remove n.tuples tk;
  e.older.newer <- e.newer;
  e.newer.older <- e.older;
  for i = 0 to Array.length n.indexes - 1 do
    let next = e.links.(2 * i) and prev = e.links.((2 * i) + 1) in
    if next == prev then
      Hybrid.remove n.indexes.(i).buckets
        (Keypack.key_of_tuple n.indexes.(i).positions e.tuple)
    else begin
      prev.links.(2 * i) <- next;
      next.links.((2 * i) + 1) <- prev
    end
  done

let apply t (u : Delta.update) =
  let n = node t u.relation in
  let tk = tuple_key n u.tuple in
  match Hybrid.find_opt n.tuples tk with
  | None ->
      if u.multiplicity <> 0 then begin
        insert t n tk u;
        t.total <- t.total + abs u.multiplicity
      end
  | Some e ->
      let m = e.mult + u.multiplicity in
      t.total <- t.total + abs m - abs e.mult;
      if m = 0 then remove n tk e else e.mult <- m

let total_tuples t = t.total
let join_tree t = t.jt

(* Live tuples with multiplicities, in the tuple table's order. *)
let iter_tuples (n : node) f = Hybrid.iter (fun _ e -> f e.tuple e.mult) n.tuples

(* Live contents oldest first: replaying the dump as inserts into a fresh
   storage rebuilds every bucket in the original order, so float
   accumulation downstream reproduces bit-identically. *)
let dump t : Delta.update list =
  let rec go e acc =
    if e == t.live then acc
    else
      go e.older
        ({ Delta.relation = e.rel; tuple = e.tuple; multiplicity = e.mult } :: acc)
  in
  go t.live.older []
