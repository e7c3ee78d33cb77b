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
   [Payload.Cov] it is F-IVM proper — one tree maintaining the whole
   aggregate batch.

   Shapes. A node's buffers have the shape of its subtree: the union of its
   relation's lift shape and its children's shapes. For the covariance ring
   that is the features owned in the subtree, so a leaf owning one feature
   keeps 3-float triples and only the root keeps the full triple. Every
   product multiplies operands of disjoint shapes through a plan made here,
   once: the children's product (per skipped child, step by step), a
   child's delta times the others, and the lift times the children.

   Views and deltas are entry tables: keys map to dense ids through a
   [Keypack.Index], and each id owns one buffer of the node's shape. A view
   entry's id and buffer go back to the node's free list when its payload
   cancels; a node's delta table holds the deltas of the current update, in
   insertion order, and is cleared at the next. Storage edges, product
   plans and scratch are resolved at [create], so an update probes each
   table once per key and allocates nothing: no key, option, closure or
   list.

   Tuples are storage rows: the updated tuple is the node's staged row, and
   partners come out of the storage's buckets as row ids, so lifts and keys
   read typed cells and never a boxed tuple. *)

open Relational

(* ---------- entry tables ---------- *)

(* Keys to dense ids, each id owning one buffer. Ids below [ids] are
   handed out (or on the free list); buffers below [Array.length bufs]
   exist, so a cleared table reuses them. *)
type 'p entries = {
  index : Keypack.Index.t; (* key -> id *)
  fresh : unit -> 'p;
  mutable bufs : 'p array; (* id -> its buffer *)
  mutable keys : int array; (* id -> packed key, or [Keypack.nopack] *)
  mutable tuples : Tuple.t array; (* id -> its key, when it does not pack *)
  mutable ids : int;
  mutable free : int array; (* released ids, [nfree] of them *)
  mutable nfree : int;
}

let entries fresh =
  {
    index = Keypack.Index.create ();
    fresh;
    bufs = [||];
    keys = [||];
    tuples = [||];
    ids = 0;
    free = [||];
    nfree = 0;
  }

let extend a size fill =
  let b = Array.make size fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The id of a key ([tuple] is read only when [p] is [Keypack.nopack]), or
   -1. *)
let find e p tuple =
  if p <> Keypack.nopack then Keypack.Index.find e.index p
  else Keypack.Index.find_boxed e.index tuple

let add e p tuple =
  let id =
    if e.nfree > 0 then begin
      e.nfree <- e.nfree - 1;
      e.free.(e.nfree)
    end
    else begin
      let id = e.ids in
      e.ids <- id + 1;
      if id = Array.length e.bufs then begin
        let size = max 8 (2 * id) in
        e.bufs <- extend e.bufs size (e.fresh ());
        for k = id + 1 to size - 1 do
          e.bufs.(k) <- e.fresh ()
        done;
        e.keys <- extend e.keys size Keypack.nopack;
        e.tuples <- extend e.tuples size [||]
      end;
      id
    end
  in
  e.keys.(id) <- p;
  if p <> Keypack.nopack then ignore (Keypack.Index.add e.index p id)
  else begin
    e.tuples.(id) <- tuple;
    ignore (Keypack.Index.replace_boxed e.index tuple id)
  end;
  id

let release e id =
  let p = e.keys.(id) in
  if p <> Keypack.nopack then Keypack.Index.remove e.index p
  else begin
    Keypack.Index.remove_boxed e.index e.tuples.(id);
    e.tuples.(id) <- [||]
  end;
  if e.nfree = Array.length e.free then e.free <- extend e.free (max 8 (2 * e.nfree)) 0;
  e.free.(e.nfree) <- id;
  e.nfree <- e.nfree + 1

(* Empty the table, keeping its buffers. *)
let clear e =
  Keypack.Index.clear e.index;
  e.ids <- 0;
  e.nfree <- 0

let size e = Keypack.Index.length e.index

(* Every live (key, buffer) pair: the ids the index maps their keys to. *)
let bindings e =
  let out = ref [] in
  for id = 0 to e.ids - 1 do
    let p = e.keys.(id) and t = e.tuples.(id) in
    if find e p t = id then out := (Keypack.to_key p t, e.bufs.(id)) :: !out
  done;
  !out

module Make (P : Payload.S) = struct
  (* The product of a node's children's views for one row, skipping one
     child: [first] is read in place (-1: the empty product, the ring's
     one, never materialised), then step [k] multiplies the product so far
     by child [next.(k)] into [steps.(k)] with [plans.(k)]. *)
  type chain = {
    first : int;
    next : int array;
    plans : P.product array;
    steps : P.t array;
  }

  type vnode = {
    name : string;
    node : Storage.node;
    cells : Column.t array; (* the node's storage columns *)
    lift_shape : P.shape; (* the relation's own *)
    shape : P.shape; (* the subtree's: every buffer here but [lifted] *)
    key_positions : int array; (* join key with parent, in storage schema *)
    lift : int -> into:P.t -> unit; (* a row's lift *)
    children : vnode array;
    edges : Storage.edge array; (* this relation's index towards each child *)
    view : P.t entries;
    deltas : P.t entries; (* this node's deltas in the current update *)
    lifted : P.t;
    chains : chain array; (* at [except + 1], the children but [except] *)
    lift_plan : P.product option; (* lift times all children; None at a leaf *)
    joins : P.product option array;
        (* per child: its delta times the other children, None when it has
           no siblings *)
    joined : P.t; (* a child's delta times the other children *)
    contrib : P.t;
  }

  (* A relation's node and its ancestors bottom-up, each with the index of
     the child on the path. *)
  type path = { leaf : vnode; ups : vnode array; via : int array }

  type t = { root : vnode; empty : P.t; paths : path array }

  let chain (children : vnode array) except =
    match List.filter (( <> ) except) (List.init (Array.length children) Fun.id) with
    | [] -> ({ first = -1; next = [||]; plans = [||]; steps = [||] }, None)
    | first :: rest ->
        let shape = ref children.(first).shape in
        let steps =
          List.map
            (fun i ->
              let plan = P.product !shape children.(i).shape in
              shape := P.union !shape children.(i).shape;
              (i, plan, P.zero !shape))
            rest
        in
        let pick f = Array.of_list (List.map f steps) in
        ( {
            first;
            next = pick (fun (i, _, _) -> i);
            plans = pick (fun (_, p, _) -> p);
            steps = pick (fun (_, _, b) -> b);
          },
          Some !shape )

  (* [lift node] gives the shape of the node's lifts and a function writing
     the lift of row [r] into a buffer of that shape (the product of the
     lifts of the attributes the relation owns); it is applied to [node]
     once per node, here. Views start empty (matching the empty storage). *)
  let create storage ~lift =
    let rec build (n : Join_tree.node) =
      let name = Relation.name n.rel in
      let schema = Relation.schema n.rel in
      let node = Storage.node storage name in
      let children = Array.of_list (List.map build n.children) in
      let lift_shape, lift = lift node in
      let chains = Array.init (Array.length children + 1) (fun e -> chain children (e - 1)) in
      let below = snd chains.(0) in
      let shape = match below with Some s -> P.union lift_shape s | None -> lift_shape in
      {
        name;
        node;
        cells = Storage.cells node;
        lift_shape;
        shape;
        (* sorted to match [Storage]'s edge-key order *)
        key_positions =
          Array.of_list (List.map (Schema.position schema) (List.sort compare n.key));
        lift;
        children;
        edges = Array.map (fun c -> Storage.edge node ~neighbour:c.name) children;
        view = entries (fun () -> P.zero shape);
        deltas = entries (fun () -> P.zero shape);
        lifted = P.zero lift_shape;
        chains = Array.map fst chains;
        lift_plan = Option.map (P.product lift_shape) below;
        joins =
          Array.mapi
            (fun c child -> Option.map (P.product child.shape) (snd chains.(c + 1)))
            children;
        joined = P.zero (Option.value below ~default:lift_shape);
        contrib = P.zero shape;
      }
    in
    let root = build (Join_tree.tree (Storage.join_tree storage)) in
    let paths = ref [] in
    let rec index ancestors v =
      let ups = Array.of_list ancestors in
      paths := { leaf = v; ups = Array.map fst ups; via = Array.map snd ups } :: !paths;
      Array.iteri (fun i c -> index ((v, i) :: ancestors) c) v.children
    in
    index [] root;
    { root; empty = P.zero root.shape; paths = Array.of_list !paths }

  let rec path_from paths node i =
    if i = Array.length paths then -1
    else if paths.(i).leaf.node == node then i
    else path_from paths node (i + 1)

  (* Accumulate a delta into the view, DROPPING the entry when the payload
     cancels to exact zero: a group churned down to zero multiplicity must
     leave no 0-weight residue, or the maintained state (view_rows,
     checkpoint dumps, and the -0.0/+0.0 bits reachable through
     [children_product]) diverges from a recompute that never saw the
     group. [P.is_zero] is exact, so near-zero accumulations survive. *)
  let view_add v p tuple d =
    let e = v.view in
    let id = find e p tuple in
    if id >= 0 then begin
      let acc = e.bufs.(id) in
      P.add_into d ~into:acc;
      if P.is_zero acc then release e id
    end
    else if not (P.is_zero d) then P.copy d ~into:e.bufs.(add e p tuple)

  exception No_partner

  (* Child [i]'s view entry joining row [r] of [v]'s relation. Raises
     [No_partner] if there is none (the row currently contributes
     nothing). *)
  let child_entry v i r =
    let c = v.children.(i) and e = v.edges.(i) in
    let p = Storage.edge_packed e r in
    let id =
      if p <> Keypack.nopack then Keypack.Index.find c.view.index p
      else Keypack.Index.find_boxed c.view.index (Storage.edge_tuple e r)
    in
    if id < 0 then raise_notrace No_partner;
    c.view.bufs.(id)

  let rec chain_from v ch r k acc =
    if k = Array.length ch.next then acc
    else begin
      let into = ch.steps.(k) in
      P.mul_into ch.plans.(k) acc (child_entry v ch.next.(k) r) ~into;
      chain_from v ch r (k + 1) into
    end

  (* The chain's product for row [r]; the chain must not be empty. *)
  let children_product v ch r = chain_from v ch r 0 (child_entry v ch.first r)

  (* m * lift(row) into [v]'s lift buffer. Scaling by 1 multiplies every
     float by 1.0, which is exact, so it is skipped. *)
  let lift_scaled v r m =
    v.lift r ~into:v.lifted;
    if m <> 1 then P.scale m v.lifted

  let key v r = Keypack.pack v.cells v.key_positions r

  let key_tuple v p r =
    if p = Keypack.nopack then Keypack.tuple v.cells v.key_positions r else [||]

  (* The updated node's delta: m * lift(row) times its children's views. *)
  let leaf_delta v r m =
    clear v.deltas;
    let ch = v.chains.(0) in
    match if ch.first < 0 then v.lifted else children_product v ch r with
    | exception No_partner -> ()
    | product ->
        lift_scaled v r m;
        let p = key v r in
        let tuple = key_tuple v p r in
        let d = v.deltas.bufs.(add v.deltas p tuple) in
        (match v.lift_plan with
        | Some plan -> P.mul_into plan v.lifted product ~into:d
        | None -> P.copy v.lifted ~into:d);
        view_add v p tuple d

  (* Row [r] of [v]'s relation, of multiplicity [m], joins the delta [d]
     of child [c]: it contributes m * lift(row) * (d * the other children's
     views) to [v]'s delta at its key. *)
  let contribute v c d r m =
    let ch = v.chains.(c + 1) in
    match
      match v.joins.(c) with
      | None -> d
      | Some plan ->
          let others = children_product v ch r in
          P.mul_into plan d others ~into:v.joined;
          v.joined
    with
    | exception No_partner -> ()
    | joined -> (
        lift_scaled v r m;
        let plan = match v.lift_plan with Some plan -> plan | None -> assert false in
        let p = key v r in
        let tuple = key_tuple v p r in
        let id = find v.deltas p tuple in
        if id >= 0 then begin
          P.mul_into plan v.lifted joined ~into:v.contrib;
          P.add_into v.contrib ~into:v.deltas.bufs.(id)
        end
        else P.mul_into plan v.lifted joined ~into:v.deltas.bufs.(add v.deltas p tuple))

  let rec walk v c d e r =
    if r >= 0 then begin
      contribute v c d r (Storage.row_multiplicity v.node r);
      walk v c d e (Storage.next e r)
    end

  (* An ancestor's deltas: every delta of child [c], in insertion order,
     meets the stored rows of [v] joining its key, newest first.
     Contributions to one key add up in that order. A delta table is
     cleared per update and never releases an id, so its ids [0 .. ids-1]
     are dense and in insertion order. *)
  let ancestor_deltas v c =
    clear v.deltas;
    let child = v.children.(c).deltas and e = v.edges.(c) in
    for id = 0 to child.ids - 1 do
      walk v c child.bufs.(id) e (Storage.first e child.keys.(id) child.tuples.(id))
    done;
    let e = v.deltas in
    for id = 0 to e.ids - 1 do
      view_add v e.keys.(id) e.tuples.(id) e.bufs.(id)
    done

  let rec climb path i (below : vnode) =
    if i < Array.length path.ups && below.deltas.ids > 0 then begin
      ancestor_deltas path.ups.(i) path.via.(i);
      climb path (i + 1) path.ups.(i)
    end

  (* Apply one update, staged as row [r] of [node], with multiplicity [m];
     the delta is computed against the CURRENT storage (call
     [Storage.apply_staged] after all trees have seen the update). *)
  let delta t node r m =
    let i = path_from t.paths node 0 in
    if i >= 0 then begin
      let path = t.paths.(i) in
      leaf_delta path.leaf r m;
      climb path 0 path.leaf
    end

  (* The maintained result: the root view at the empty key (packed 0). *)
  let result t =
    let id = Keypack.Index.find t.root.view.index 0 in
    if id >= 0 then t.root.view.bufs.(id) else t.empty

  (* From-scratch recomputation over the current storage (reference for
     tests): enumerate the join recursively through the view-tree shape,
     multiplying each row's lift by its children's views in child order,
     rows in row order ([Storage.iter_live]), into fresh tables. *)
  let recompute t =
    let rec eval v =
      let child_views = Array.map eval v.children in
      let shape = ref v.lift_shape in
      let steps =
        Array.map
          (fun c ->
            let plan = P.product !shape c.shape in
            shape := P.union !shape c.shape;
            (plan, P.zero !shape))
          v.children
      in
      let out = entries (fun () -> P.zero v.shape) in
      Storage.iter_live v.node (fun r m ->
          lift_scaled v r m;
          let rec go i acc =
            if i = Array.length v.children then Some acc
            else
              let e = v.edges.(i) in
              let p = Storage.edge_packed e r in
              let id =
                find child_views.(i) p (if p = Keypack.nopack then Storage.edge_tuple e r else [||])
              in
              if id < 0 then None
              else begin
                let plan, into = steps.(i) in
                P.mul_into plan acc child_views.(i).bufs.(id) ~into;
                go (i + 1) into
              end
          in
          match go 0 v.lifted with
          | None -> ()
          | Some prod ->
              let p = key v r in
              let tuple = key_tuple v p r in
              let id = find out p tuple in
              if id >= 0 then P.add_into prod ~into:out.bufs.(id)
              else P.copy prod ~into:out.bufs.(add out p tuple));
      out
    in
    let out = eval t.root in
    let id = Keypack.Index.find out.index 0 in
    if id >= 0 then out.bufs.(id) else P.zero t.root.shape

  let fold_nodes f t init =
    let rec go v acc = Array.fold_left (fun acc c -> go c acc) (f v acc) v.children in
    go t.root init

  let view_sizes t = fold_nodes (fun v acc -> (v.name, size v.view) :: acc) t []

  let shape_of t name =
    fold_nodes (fun v acc -> if String.equal v.name name then Some v.shape else acc) t None

  (* Checkpoint support: dump every node's view as (key, payload) pairs and
     load such a dump back into a freshly created tree. Entries hold the
     EXACT accumulated ring values, so export -> import restores the
     maintained state bit-identically (a from-scratch recomputation would
     re-associate float additions). Keys are sorted for a deterministic
     serialisation; node names are unique (they are relation names). *)
  let export t f =
    fold_nodes
      (fun v acc ->
        let entries = List.map (fun (k, p) -> (k, f v.shape p)) (bindings v.view) in
        (v.name, List.sort (fun (a, _) (b, _) -> Keypack.key_compare a b) entries) :: acc)
      t []

  let import t dump =
    fold_nodes
      (fun v () ->
        clear v.view;
        match List.assoc_opt v.name dump with
        | Some entries ->
            (* skip exact-zero payloads so restoring a dump written before the
               zero-drop discipline still yields a normalised tree *)
            List.iter
              (fun (k, p) ->
                if not (P.is_zero p) then begin
                  let packed, tuple = Keypack.of_key k in
                  P.copy p ~into:v.view.bufs.(add v.view packed tuple)
                end)
              entries
        | None -> ())
      t ()
end
