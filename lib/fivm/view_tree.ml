(* Factorised view trees with ring payloads (F-IVM, Sections 3.1 and 5.2).

   The join tree is turned into a hierarchy of views: each node maintains,
   per join-key value with its parent, the ring aggregate of its subtree's
   join (tuple lifts multiplied down the tree, summed over join results).
   A single-tuple update issues one bottom-up delta propagation: at the
   updated node the delta is the lifted tuple times its children's current
   views; at each ancestor, the delta joins the ancestor's stored tuples
   (via the child-key index) and the other children's views. The root view
   holds the maintained query result.

   Instantiated with [Payload.Float] and per-aggregate lifts this is
   higher-order delta processing with intermediate views; instantiated with
   [Rings.Covariance] it is F-IVM proper — one tree maintaining the whole
   aggregate batch.

   Payloads are in-place ({!Payload.S}): each view entry owns one buffer
   and deltas are added into it; each node owns scratch for its lift, its
   children product and one contribution, plus a per-update delta table
   reset between updates; delta and entry buffers cycle through a free
   list. The updated relation's path to the root and every storage edge are
   resolved at [create], so an update does no name lookups beyond one.

   Tuples are storage rows: the updated tuple is the node's staged row, and
   partners come out of the storage's buckets as row ids, so lifts and keys
   read typed cells and never a boxed tuple. *)

open Relational
module H = Keypack.Hybrid

module Make (P : Payload.S) = struct
  type vnode = {
    name : string;
    node : Storage.node;
    key_positions : int array; (* join key with parent, in storage schema *)
    lift : int -> into:P.t -> unit; (* a row's lift *)
    view : P.t H.t; (* every entry owns its buffer *)
    children : vnode array;
    edges : Storage.edge array; (* this relation's index towards each child *)
    deltas : P.t H.t; (* this level's deltas in the current update *)
    lifted : P.t; (* scratch *)
    prod : P.t;
    prod' : P.t;
    joined : P.t;
    contrib : P.t;
  }

  type t = {
    root : vnode;
    zero : unit -> P.t;
    empty : P.t; (* [result] while the root view has no entry *)
    paths : (string, vnode * (vnode * int) array) Hashtbl.t;
        (* relation -> its node, then its ancestors bottom-up, each with the
           index of the child on the path *)
    free : P.t Stack.t; (* buffers released by views and delta tables *)
  }

  (* [lift node r ~into] must write the ring image of row [r] of the node's
     relation (the product of the lifts of the attributes owned by it). *)
  let create storage ~zero ~lift =
    let rec build (n : Join_tree.node) =
      let name = Relation.name n.rel in
      let schema = Relation.schema n.rel in
      let node = Storage.node storage name in
      let children = Array.of_list (List.map build n.children) in
      {
        name;
        node;
        (* sorted to match [Storage]'s edge-key order *)
        key_positions =
          Array.of_list (List.map (Schema.position schema) (List.sort compare n.key));
        lift = lift node;
        view = H.create 256;
        children;
        edges = Array.map (fun c -> Storage.edge node ~neighbour:c.name) children;
        deltas = H.create 8;
        lifted = zero ();
        prod = zero ();
        prod' = zero ();
        joined = zero ();
        contrib = zero ();
      }
    in
    let root = build (Join_tree.tree (Storage.join_tree storage)) in
    let paths = Hashtbl.create 8 in
    let rec index ancestors v =
      Hashtbl.replace paths v.name (v, Array.of_list ancestors);
      Array.iteri (fun i c -> index ((v, i) :: ancestors) c) v.children
    in
    index [] root;
    { root; zero; empty = zero (); paths; free = Stack.create () }

  let take t = if Stack.is_empty t.free then t.zero () else Stack.pop t.free
  let release t b = Stack.push b t.free

  (* Accumulate a delta into the view, DROPPING the entry when the payload
     cancels to exact zero: a group churned down to zero multiplicity must
     leave no 0-weight residue, or the maintained state (view_rows,
     checkpoint dumps, and the -0.0/+0.0 bits reachable through
     [children_product]) diverges from a recompute that never saw the
     group. [P.is_zero] is exact, so near-zero accumulations survive. *)
  let view_add t v key d =
    match H.find_opt v.view key with
    | Some acc ->
        P.add_into d ~into:acc;
        if P.is_zero acc then begin
          H.remove v.view key;
          release t acc
        end
    | None ->
        if not (P.is_zero d) then begin
          let b = take t in
          P.copy d ~into:b;
          H.add v.view key b
        end

  exception No_partner

  (* Product of the children's views for row [r] of [v]'s relation, in child
     order, skipping child [except]. [None] is the empty product, the ring's
     one, which is never materialised: a first factor is read in place.
     Raises [No_partner] if some child has no matching key (the tuple
     currently contributes nothing). Partial products alternate between
     [v]'s two product buffers. *)
  let children_product v r ~except =
    let rec go i acc =
      if i = Array.length v.children then acc
      else if i = except then go (i + 1) acc
      else
        match H.find_opt v.children.(i).view (Storage.edge_key v.edges.(i) r) with
        | None -> raise_notrace No_partner
        | Some p -> (
            match acc with
            | None -> go (i + 1) (Some p)
            | Some a ->
                let into = if a == v.prod then v.prod' else v.prod in
                P.mul_into a p ~into;
                go (i + 1) (Some into))
    in
    go 0 None

  (* m * lift(row) into [v]'s lift buffer. Scaling by 1 multiplies every
     float by 1.0, which is exact, so it is skipped. *)
  let lift_scaled v r m =
    v.lift r ~into:v.lifted;
    if m <> 1 then P.scale m v.lifted

  (* The updated node's delta: m * lift(row) times its children's views. *)
  let leaf_delta t v r m =
    match children_product v r ~except:(-1) with
    | exception No_partner -> []
    | product ->
        lift_scaled v r m;
        let d = take t in
        (match product with
        | Some p -> P.mul_into v.lifted p ~into:d
        | None -> P.copy v.lifted ~into:d);
        let key = Storage.key v.node v.key_positions r in
        view_add t v key d;
        [ (key, d) ]

  (* An ancestor's deltas: every child delta [(ck, d)] meets the stored
     rows of [v] joining [ck] through child [c]'s edge, each contributing
     m * lift(row) * (d * its other children's views). Contributions to
     one key add up in child-delta order, then newest row first. The
     result lists the keys in reverse table order, which is the order the
     next level consumes them in. *)
  let ancestor_deltas t v c child_deltas =
    H.reset v.deltas;
    List.iter
      (fun (ck, d) ->
        Storage.fold_edge v.edges.(c) ck
          (fun r m () ->
            match children_product v r ~except:c with
            | exception No_partner -> ()
            | others -> (
                let joined =
                  match others with
                  | Some o ->
                      P.mul_into d o ~into:v.joined;
                      v.joined
                  | None -> d
                in
                lift_scaled v r m;
                let key = Storage.key v.node v.key_positions r in
                match H.find_opt v.deltas key with
                | Some acc ->
                    P.mul_into v.lifted joined ~into:v.contrib;
                    P.add_into v.contrib ~into:acc
                | None ->
                    let b = take t in
                    P.mul_into v.lifted joined ~into:b;
                    H.add v.deltas key b))
          ())
      child_deltas;
    H.fold
      (fun key d acc ->
        view_add t v key d;
        (key, d) :: acc)
      v.deltas []

  (* Apply one update, staged as row [r] of [node], with multiplicity [m];
     the delta is computed against the CURRENT storage (call
     [Storage.apply_staged] after all trees have seen the update). A level's
     delta buffers go back to the free list once its parent consumed them. *)
  let delta t node r m =
    match Hashtbl.find_opt t.paths (Storage.name node) with
    | None -> ()
    | Some (leaf, ancestors) ->
        let release_all = List.iter (fun (_, d) -> release t d) in
        let rec climb i = function
          | [] -> ()
          | deltas when i = Array.length ancestors -> release_all deltas
          | deltas ->
              let v, c = ancestors.(i) in
              let up = ancestor_deltas t v c deltas in
              release_all deltas;
              climb (i + 1) up
        in
        climb 0 (leaf_delta t leaf r m)

  (* The maintained result: the root view at the empty key ([P 0]). *)
  let result t = match H.find_opt t.root.view (Keypack.P 0) with Some p -> p | None -> t.empty

  (* From-scratch recomputation over the current storage (reference for
     tests): enumerate the join recursively through the view-tree shape,
     multiplying each row's lift by its children's views in child order,
     rows in [Storage.iter_in_hash_order]. *)
  let recompute t =
    let rec eval v : P.t H.t =
      let child_views = Array.map eval v.children in
      let out = H.create 64 in
      let a = t.zero () and b = t.zero () in
      Storage.iter_in_hash_order v.node (fun r m ->
          lift_scaled v r m;
          let rec go i acc =
            if i = Array.length v.children then Some acc
            else
              match H.find_opt child_views.(i) (Storage.edge_key v.edges.(i) r) with
              | Some p ->
                  let into = if acc == a then b else a in
                  P.mul_into acc p ~into;
                  go (i + 1) into
              | None -> None
          in
          match go 0 v.lifted with
          | None -> ()
          | Some p -> (
              let key = Storage.key v.node v.key_positions r in
              match H.find_opt out key with
              | Some r -> P.add_into p ~into:r
              | None ->
                  let r = t.zero () in
                  P.copy p ~into:r;
                  H.add out key r));
      out
    in
    match H.find_opt (eval t.root) (Keypack.P 0) with Some p -> p | None -> t.zero ()

  let view_sizes t =
    let rec go v acc =
      Array.fold_left (fun acc c -> go c acc) ((v.name, H.length v.view) :: acc) v.children
    in
    go t.root []

  (* Checkpoint support: dump every node's view as (key, payload) pairs and
     load such a dump back into a freshly created tree. Entries hold the
     EXACT accumulated ring values, so export -> import restores the
     maintained state bit-identically (a from-scratch recomputation would
     re-associate float additions). Keys are sorted for a deterministic
     serialisation; node names are unique (they are relation names). *)
  let export t f =
    let rec go v acc =
      let entries = H.fold (fun k p acc -> (k, f p) :: acc) v.view [] in
      let entries = List.sort (fun (a, _) (b, _) -> Keypack.key_compare a b) entries in
      Array.fold_left (fun acc c -> go c acc) ((v.name, entries) :: acc) v.children
    in
    go t.root []

  let import t dump =
    let rec go v =
      H.clear v.view;
      (match List.assoc_opt v.name dump with
      | Some entries ->
          (* skip exact-zero payloads so restoring a dump written before the
             zero-drop discipline still yields a normalised tree *)
          List.iter (fun (k, p) -> if not (P.is_zero p) then H.add v.view k p) entries
      | None -> ());
      Array.iter go v.children
    in
    go t.root
end
