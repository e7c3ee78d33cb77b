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
   the covariance ring it is F-IVM proper — one tree maintaining the whole
   aggregate batch. *)

open Relational

module Make (P : Payload.S) = struct
  type vnode = {
    name : string;
    key_positions : int array; (* join key with parent, in storage schema *)
    lift : Tuple.t -> P.t;
    view : P.t ref Keypack.Hybrid.t;
    children : vnode array;
    child_names : string list array; (* subtree relation names per child *)
  }

  type t = { root : vnode; storage : Storage.t }

  (* [lift name tuple] must give the ring image of a tuple of relation
     [name] (the product of the lifts of the attributes owned by it). *)
  let create storage ~lift =
    let jt = Storage.join_tree storage in
    let rec build (n : Join_tree.node) =
      let name = Relation.name n.rel in
      let schema = Relation.schema n.rel in
      let children = Array.of_list (List.map build n.children) in
      {
        name;
        (* sorted to match [Storage]'s edge-key order *)
        key_positions =
          Array.of_list
            (List.map (Schema.position schema) (List.sort compare n.key));
        lift = lift name;
        view = Keypack.Hybrid.create 256;
        children;
        child_names =
          Array.map
            (fun c ->
              let rec names (v : vnode) =
                v.name :: List.concat_map names (Array.to_list v.children)
              in
              names c)
            children;
      }
    in
    { root = build (Join_tree.tree jt); storage }

  let view_get (v : vnode) (key : Keypack.key) =
    match Keypack.Hybrid.find_opt v.view key with
    | Some r -> Some !r
    | None -> None

  (* Accumulate a delta into the view, DROPPING the entry when the payload
     cancels to exact zero: a group churned down to zero multiplicity must
     leave no 0-weight residue, or the maintained state (view_rows,
     checkpoint dumps, and the -0.0/+0.0 bits reachable through
     [children_product]) diverges from a recompute that never saw the
     group. [P.is_zero] is exact, so near-zero accumulations survive. *)
  let view_add (v : vnode) (key : Keypack.key) delta =
    match Keypack.Hybrid.find_opt v.view key with
    | Some r ->
        let sum = P.add !r delta in
        if P.is_zero sum then Keypack.Hybrid.remove v.view key else r := sum
    | None -> if not (P.is_zero delta) then Keypack.Hybrid.add v.view key (ref delta)

  (* Product of the children's views for a tuple of [v]'s relation, skipping
     child [except]. [None] if some child has no matching key (no join
     partner: the tuple currently contributes nothing). *)
  let children_product (v : vnode) storage tuple ~except =
    let n = Storage.node storage v.name in
    let rec go i acc =
      if i = Array.length v.children then Some acc
      else if i = except then go (i + 1) acc
      else
        let child = v.children.(i) in
        let key = Storage.key_for n ~neighbour:child.name tuple in
        match view_get child key with
        | Some p -> go (i + 1) (P.mul acc p)
        | None -> None
    in
    go 0 P.one

  (* Apply one update; the delta is computed against the CURRENT storage
     (call [Storage.apply] after all trees have seen the update). Returns
     unit; the root view is updated in place. *)
  let delta (t : t) (u : Delta.update) =
    (* propagate: returns the per-key view deltas produced at [v] *)
    let rec propagate (v : vnode) : (Keypack.key * P.t) list =
      if v.name = u.relation then begin
        let d0 = P.smul u.multiplicity (v.lift u.tuple) in
        match children_product v t.storage u.tuple ~except:(-1) with
        | None -> []
        | Some prod ->
            let delta = P.mul d0 prod in
            let key = Keypack.key_of_tuple v.key_positions u.tuple in
            view_add v key delta;
            [ (key, delta) ]
      end
      else begin
        (* find the child subtree holding the updated relation *)
        let child_idx = ref (-1) in
        Array.iteri
          (fun i names -> if List.mem u.relation names then child_idx := i)
          v.child_names;
        if !child_idx < 0 then []
        else begin
          let c = !child_idx in
          let child = v.children.(c) in
          let child_deltas = propagate child in
          let n = Storage.node t.storage v.name in
          let my_deltas : P.t ref Keypack.Hybrid.t = Keypack.Hybrid.create 8 in
          List.iter
            (fun (ck, d) ->
              Storage.fold_matching n ~neighbour:child.name ck
                (fun tuple m () ->
                  match children_product v t.storage tuple ~except:c with
                  | None -> ()
                  | Some others -> (
                      let contrib =
                        P.mul (P.smul m (v.lift tuple)) (P.mul d others)
                      in
                      let key = Keypack.key_of_tuple v.key_positions tuple in
                      match Keypack.Hybrid.find_opt my_deltas key with
                      | Some r -> r := P.add !r contrib
                      | None -> Keypack.Hybrid.add my_deltas key (ref contrib)))
                ())
            child_deltas;
          Keypack.Hybrid.fold
            (fun key r acc ->
              view_add v key !r;
              (key, !r) :: acc)
            my_deltas []
        end
      end
    in
    ignore (propagate t.root)

  (* The maintained result: the root view at the empty key ([P 0]). *)
  let result (t : t) =
    match view_get t.root (Keypack.P 0) with Some p -> p | None -> P.zero

  (* From-scratch recomputation over the current storage (reference for
     tests): enumerate the join recursively through the view-tree shape. *)
  let recompute (t : t) =
    let storage = t.storage in
    let rec eval (v : vnode) : P.t ref Keypack.Hybrid.t =
      let child_views = Array.map eval v.children in
      let out = Keypack.Hybrid.create 64 in
      let n = Storage.node storage v.name in
      Storage.iter_tuples n (fun tuple m ->
          let rec go i acc =
            if i = Array.length v.children then Some acc
            else
              let key = Storage.key_for n ~neighbour:v.children.(i).name tuple in
              match Keypack.Hybrid.find_opt child_views.(i) key with
              | Some p -> go (i + 1) (P.mul acc !p)
              | None -> None
          in
          match go 0 (P.smul m (v.lift tuple)) with
          | None -> ()
          | Some p -> (
              let key = Keypack.key_of_tuple v.key_positions tuple in
              match Keypack.Hybrid.find_opt out key with
              | Some r -> r := P.add !r p
              | None -> Keypack.Hybrid.add out key (ref p)));
      out
    in
    match Keypack.Hybrid.find_opt (eval t.root) (Keypack.P 0) with
    | Some p -> !p
    | None -> P.zero

  let view_sizes (t : t) =
    let rec go (v : vnode) acc =
      Array.fold_left
        (fun acc c -> go c acc)
        ((v.name, Keypack.Hybrid.length v.view) :: acc)
        v.children
    in
    go t.root []

  (* Checkpoint support: dump every node's view as (key, payload) pairs and
     load such a dump back into a freshly created tree. Payload refs hold the
     EXACT accumulated ring values, so export -> import restores the
     maintained state bit-identically (a from-scratch recomputation would
     re-associate float additions). Keys are sorted for a deterministic
     serialisation; node names are unique (they are relation names). *)
  let export (t : t) : (string * (Keypack.key * P.t) list) list =
    let rec go (v : vnode) acc =
      let entries =
        Keypack.Hybrid.fold (fun k r acc -> (k, !r) :: acc) v.view []
      in
      let entries =
        List.sort (fun (a, _) (b, _) -> Keypack.key_compare a b) entries
      in
      Array.fold_left (fun acc c -> go c acc) ((v.name, entries) :: acc) v.children
    in
    go t.root []

  let import (t : t) (dump : (string * (Keypack.key * P.t) list) list) =
    let rec go (v : vnode) =
      Keypack.Hybrid.clear v.view;
      (match List.assoc_opt v.name dump with
      | Some entries ->
          (* skip exact-zero payloads so restoring a dump written before the
             zero-drop discipline still yields a normalised tree *)
          List.iter
            (fun (k, p) -> if not (P.is_zero p) then Keypack.Hybrid.add v.view k (ref p))
            entries
      | None -> ());
      Array.iter go v.children
    in
    go t.root
end
