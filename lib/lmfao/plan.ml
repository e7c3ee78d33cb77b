(* Logical planning for LMFAO (Sections 1.4 and 4).

   The planner owns everything that is independent of HOW a view is
   executed: multi-root assignment (one rule: each aggregate at the
   smallest relation holding one of its attributes), the top-down
   restriction of each aggregate over the join tree, per-node
   deduplication of identical partials (sharing), attribute ownership,
   and the merge of every root's plan into directed views with the
   schedule of their scans (view groups), the largest edge's four scans
   marked as one merged step. Its output is the plan [Exec] runs, as pure
   data: relations are named, filters stay first-order [Predicate.t]
   conjuncts, terms and keys are resolved to column positions, and child
   slots are wired by index. *)

open Relational
module Spec = Aggregates.Spec
module Batch = Aggregates.Batch

exception Unsupported of string

type options = {
  share : bool; (* dedup identical partial aggregates *)
  multi_root : bool; (* per-aggregate roots by [choose_root]; off: the largest relation *)
}

let default_options = { share = true; multi_root = true }

type stats = {
  mutable views : int;
  mutable partials : int;
  mutable shared_away : int;
}

let fresh_stats () = { views = 0; partials = 0; shared_away = 0 }

(* One partial aggregate computed at a node, shared by every batch
   aggregate whose restriction to this subtree coincides with it. *)
type slot = {
  local_terms : (int * int) array; (* (position, power) over owned attrs *)
  local_groups : (string * int) array; (* owned group-by attrs *)
  local_filter : Predicate.t list; (* owned filter conjuncts *)
  child_slots : int array; (* per child: slot in the child's plan *)
  scalar : bool; (* no group-by anywhere in the subtree *)
}

type node = {
  rel : Relation.t;
  key_positions : int array; (* this node's join key with its parent *)
  child_keys : int array array; (* per child: child-key positions in OUR schema *)
  slots : slot array;
  slot_keys : string array;
      (* per slot: canonical form (sharing on) or aggregate id (off) *)
  slot_index : (string, int) Hashtbl.t; (* slot key -> index into [slots] *)
  children : node list;
}

type rooted = {
  root : string;
  tree : node;
  requests : (Spec.t * string) list;
      (* each requested aggregate with its root slot key, in batch order *)
}

(* One directed view of a batch's merged plan: relation [v_rel] toward a
   neighbour, or [v_rel]'s root view. By the running-intersection
   property the restricted specs, join key and children of a directed
   view depend only on its edge, so every root that asks for it asks for
   the same slots' definitions. *)
type view = {
  v_rel : string; (* resolved against the live database at run time *)
  v_key : int array; (* join-key positions with the neighbour; [||] at a root *)
  v_children : int array; (* per child: index of its view toward us *)
  v_child_keys : int array array; (* per child: child-key positions here *)
  v_scan_filter : Predicate.t list; (* conjuncts every slot tests, hoisted *)
  v_slots : slot array; (* [child_slots] index the children's [v_slots] *)
  v_families : int array array; (* per family: its grouped slots, in slot order *)
}

(* One scan: a relation and the views it computes. *)
type scan = string * int array

(* The largest edge's four scans, run by [Exec] as one loop over key
   blocks: N->C, C's root view and views toward its other neighbours,
   C->N, and N's down views. *)
type merge = {
  n_rel : string; (* N, C's largest neighbour *)
  c_rel : string; (* C, the largest relation *)
  n_key : int array; (* the edge's attributes in N's schema, in N's order *)
  c_key : int array; (* the same attributes in C's schema *)
  up : int array; (* N->C, or [||] *)
  c_views : int array; (* C's root view and views toward its other neighbours *)
  c_to_n : int array; (* C->N, or [||] *)
  down : int array; (* N's root view and views toward its children *)
}

type step = Scan of scan | Merge of merge

type grouped = {
  views : view array; (* in schedule order: children before parents *)
  steps : step list; (* the schedule *)
  outputs : (Spec.t * int * int) list;
      (* each requested aggregate with its root view and slot, in batch order *)
}

(* A step's scans when it runs as one block: a merged step's four in
   order, those with no view left out. *)
let scans = function
  | Scan sc -> [ sc ]
  | Merge m ->
      List.filter
        (fun (_, vs) -> vs <> [||])
        [ (m.n_rel, m.up); (m.c_rel, m.c_views); (m.c_rel, m.c_to_n); (m.n_rel, m.down) ]

let c_views = Obs.counter "lmfao.views"
let c_partials = Obs.counter "lmfao.partials"
let c_shared_away = Obs.counter "lmfao.shared_away"
let c_fused = Obs.counter "lmfao.compile.filters_fused"
let c_families = Obs.counter "lmfao.families"
let c_slot_rows = Obs.counter "lmfao.slot_rows"

(* ---------- filter decomposition ---------- *)

(* Split a predicate into single-attribute conjuncts. Aggregates whose
   filters span several attributes (additive inequalities) are outside this
   engine; Section 2.3's dedicated algorithms live in [Ml.Svm]. *)
let rec conjuncts (p : Predicate.t) : Predicate.t list =
  match p with
  | Predicate.True -> []
  | Predicate.And (a, b) -> conjuncts a @ conjuncts b
  | p -> [ p ]

let conjunct_attr p =
  match List.sort_uniq compare (Predicate.attrs p) with
  | [ a ] -> a
  | _ ->
      raise
        (Unsupported
           (Format.asprintf "filter %a does not decompose per attribute"
              Predicate.pp p))

(* Restrict a spec to the attributes satisfying [keep]. *)
let restrict keep (s : Spec.t) : Spec.t =
  let filter =
    match List.filter (fun c -> keep (conjunct_attr c)) (conjuncts s.filter) with
    | [] -> Predicate.True
    | c :: cs -> List.fold_left (fun acc c -> Predicate.And (acc, c)) c cs
  in
  Spec.make ~filter ~id:s.id
    ~terms:(List.filter (fun (a, _) -> keep a) s.terms)
    ~group_by:(List.filter keep s.group_by)
    ()

let slot_key options (s : Spec.t) =
  if options.share then Spec.canonical s else s.Spec.id

(* ---------- plan construction ---------- *)

let rec build_node ~options ~owner ~stats (node : Join_tree.node)
    (specs : Spec.t list) : node =
  let my_name = Relation.name node.rel in
  let schema = Relation.schema node.rel in
  (* deduplicate partials at this node *)
  let canonical = slot_key options in
  let tbl = Hashtbl.create 16 in
  let distinct = ref [] in
  List.iter
    (fun s ->
      let key = canonical s in
      if not (Hashtbl.mem tbl key) then begin
        Hashtbl.add tbl key (List.length !distinct);
        distinct := s :: !distinct
      end
      else stats.shared_away <- stats.shared_away + 1)
    specs;
  let distinct = Array.of_list (List.rev !distinct) in
  stats.partials <- stats.partials + Array.length distinct;
  stats.views <- stats.views + 1;
  let owned_here a = Hashtbl.find owner a = my_name in
  (* children plans: restrict each distinct partial to each child's subtree *)
  let children_with_specs =
    List.map
      (fun (child : Join_tree.node) ->
        let child_names =
          Join_tree.fold_node (fun acc n -> Relation.name n.rel :: acc) [] child
        in
        let in_child a = List.mem (Hashtbl.find owner a) child_names in
        let restricted = Array.map (restrict in_child) distinct in
        (child, restricted))
      node.children
  in
  let child_plans =
    List.map
      (fun (child, restricted) ->
        build_node ~options ~owner ~stats child (Array.to_list restricted))
      children_with_specs
  in
  (* slot index of each restricted partial within its child's plan *)
  let child_slot_of =
    List.map2
      (fun (_, restricted) (plan : node) ->
        Array.map
          (fun (r : Spec.t) ->
            match Hashtbl.find_opt plan.slot_index (canonical r) with
            | Some i -> i
            | None -> failwith "Plan.build: missing child slot")
          restricted)
      children_with_specs child_plans
  in
  let slots =
    Array.mapi
      (fun i (s : Spec.t) ->
        let local_terms =
          Array.of_list
            (List.filter_map
               (fun (a, p) ->
                 if owned_here a then Some (Schema.position schema a, p)
                 else None)
               s.terms)
        in
        let local_groups =
          Array.of_list
            (List.filter_map
               (fun a ->
                 if owned_here a then Some (a, Schema.position schema a)
                 else None)
               s.group_by)
        in
        let local_filter =
          List.filter (fun c -> owned_here (conjunct_attr c)) (conjuncts s.filter)
        in
        let child_slots =
          Array.of_list (List.map (fun arr -> arr.(i)) child_slot_of)
        in
        {
          local_terms;
          local_groups;
          local_filter;
          child_slots;
          scalar = s.group_by = [];
        })
      distinct
  in
  let slot_keys = Array.map canonical distinct in
  let slot_index = Hashtbl.create (2 * Array.length slots) in
  Array.iteri (fun i key -> Hashtbl.replace slot_index key i) slot_keys;
  {
    rel = node.rel;
    key_positions = Array.of_list (List.map (Schema.position schema) node.key);
    child_keys =
      Array.of_list
        (List.map
           (fun ((child : Join_tree.node), _) ->
             Array.of_list (List.map (Schema.position schema) child.key))
           children_with_specs);
    slots;
    slot_keys;
    slot_index;
    children = child_plans;
  }

(* Owner of each attribute for a given rooting: the node closest to the root
   whose relation contains it (BFS order, ties broken by name). *)
let compute_owners (root : Join_tree.node) =
  let owner = Hashtbl.create 32 in
  let queue = Queue.create () in
  Queue.add root queue;
  let level = ref [] in
  (* BFS with deterministic within-level order *)
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    level := n :: !level;
    List.iter (fun c -> Queue.add c queue) n.children
  done;
  List.iter
    (fun (n : Join_tree.node) ->
      List.iter
        (fun a -> Hashtbl.replace owner a (Relation.name n.rel))
        (Schema.names (Relation.schema n.rel)))
    !level;
  (* [!level] is reverse BFS, so replace leaves the shallowest node in *)
  owner

let build options ~stats (jt : Join_tree.t) ~root (specs : Spec.t list) :
    rooted =
  let tree = Join_tree.tree ~root jt in
  let owner = compute_owners tree in
  let tree = build_node ~options ~owner ~stats tree specs in
  { root; tree; requests = List.map (fun s -> (s, slot_key options s)) specs }

(* ---------- root choice ---------- *)

(* Root choice per aggregate (the heart of LMFAO's multi-root design): an
   aggregate roots at the smallest relation whose schema holds one of its
   group-by attributes or terms, and a count, which has neither, at the
   smallest relation. Ties go first to a relation holding a group-by
   attribute, then to the owner of the earliest attribute (sorted group-by
   attributes, then terms; an attribute's owner is the first relation
   holding it), then to join-tree order. So a scalar product is summed
   over a small dimension while the fact table contributes deduplicated
   partials, one per attribute; and a grouped aggregate whose term lives
   in a smaller relation than its group-by roots there: its group key is
   pushed down the join tree, one key shared by every aggregate grouped by
   it, instead of its term being pushed up as one float per row of every
   view between. Applied to a join tree, it indexes each attribute's
   holders once for all the aggregates it then roots. *)
let choose_root (jt : Join_tree.t) ~default_root =
  let rels = Join_tree.relations jt in
  (* each attribute's holders in join-tree order: the first is its owner *)
  let index = Hashtbl.create 64 in
  let holders a = Option.value ~default:[] (Hashtbl.find_opt index a) in
  List.iter
    (fun r -> List.iter (fun a -> Hashtbl.replace index a (r :: holders a)) (Schema.names (Relation.schema r)))
    (List.rev rels);
  fun (s : Spec.t) ->
    let groups = List.map holders s.group_by in
    let attrs = groups @ List.map (fun (a, _) -> holders a) s.terms in
    let cost r =
      ( Relation.cardinality r,
        not (List.exists (List.memq r) groups),
        Option.value ~default:max_int
          (List.find_index (function owner :: _ -> owner == r | [] -> false) attrs) )
    in
    let candidates =
      if attrs = [] then rels else List.filter (fun r -> List.exists (List.memq r) attrs) rels
    in
    match List.map (fun r -> (cost r, r)) candidates with
    | [] -> default_root
    | c :: rest ->
        Relation.name (snd (List.fold_left (fun b c -> if fst c < fst b then c else b) c rest))

(* Group the batch's aggregates by their chosen root, preserving batch order
   within and across groups. Raises [Join_tree.Cyclic] on cyclic schemas. *)
let group_by_root options (db : Database.t) (batch : Batch.t) :
    Join_tree.t * (string * Spec.t list) list =
  let jt = Database.join_tree db in
  let default_root =
    let largest =
      List.fold_left
        (fun acc r ->
          match acc with
          | None -> Some r
          | Some best ->
              if Relation.cardinality r > Relation.cardinality best then Some r
              else acc)
        None (Database.relations db)
    in
    Relation.name (Option.get largest)
  in
  let root_of = if options.multi_root then choose_root jt ~default_root else fun _ -> default_root in
  let groups = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun s ->
      let root = root_of s in
      match Hashtbl.find_opt groups root with
      | Some l -> l := s :: !l
      | None ->
          Hashtbl.add groups root (ref [ s ]);
          order := root :: !order)
    batch.Batch.aggregates;
  ( jt,
    List.map
      (fun root -> (root, List.rev !(Hashtbl.find groups root)))
      (List.rev !order) )

(* ---------- view groups ---------- *)

(* Hoist the filter conjuncts that EVERY slot of a view tests into the
   view's scan filter, so a row tests them once instead of once per slot.
   The scan filter gates the slots, never the view's key insertion:
   a row whose filters all fail still creates its zero row, which a parent
   row then finds, so hoisting leaves every result bit alone. *)
let hoist_filters (slots : slot array) : Predicate.t list * slot array =
  match Array.to_list slots with
  | [] -> ([], slots)
  | first :: rest -> (
      let common =
        List.filter
          (fun c -> List.for_all (fun s -> List.mem c s.local_filter) rest)
          (List.sort_uniq compare first.local_filter)
      in
      match common with
      | [] -> ([], slots)
      | _ ->
          Obs.add c_fused (List.length common);
          let strip s =
            let local_filter = List.filter (fun c -> not (List.mem c common)) s.local_filter in
            { s with local_filter }
          in
          (common, Array.map strip slots))

(* Gather the grouped slots of a view into families: slots whose keys are
   exactly the same because they come from the same source — the same
   local group columns, the same local filter, and per child the same
   family of the child view (or, for a scalar child, none). A row then
   finds a family's key once for all its members. A family holds at most
   [Flat_view.block_size] members, so that one entry's values fit in one
   value block; a wider one splits. [child_family.(c)] maps child [c]'s
   slots to their families (-1 for a scalar slot); the result maps this
   view's slots. *)
let families (child_family : int array array) (slots : slot array) : int array =
  let by_source = Hashtbl.create 8 and n = ref 0 in
  Array.map
    (fun s ->
      if s.scalar then -1
      else begin
        let source =
          ( List.sort compare (Array.to_list s.local_groups),
            List.sort_uniq compare s.local_filter,
            Array.mapi (fun c cs -> child_family.(c).(cs)) s.child_slots )
        in
        let f, size =
          match Hashtbl.find_opt by_source source with
          | Some (f, size) when size < Flat_view.block_size -> (f, size)
          | _ ->
              incr n;
              (!n - 1, 0)
        in
        Hashtbl.replace by_source source (f, size + 1);
        f
      end)
    slots

(* Merge the per-root plans into directed views, deduplicating slots by
   key across roots, and schedule one scan per group of views over a
   relation. The schedule roots the join tree at the largest relation C:
   an up pass computes every view toward C, children first; then one
   merged step covers the largest edge, between C and its largest
   neighbour N: N->C, C's root view and its views toward its other
   neighbours, C->N, and N's root view and views toward its children
   ([Exec] runs it one key block at a time, or as those four scans); a
   down pass computes the remaining views, parents first. Each relation is
   thus scanned at most twice, C once when the step runs by blocks. The
   schedule depends on cardinalities, so it only moves time and memory:
   every slot sums the same rows in the same order whatever the
   schedule. *)
let group (jt : Join_tree.t) ~(stats : stats) (rooted : rooted list) :
    grouped * stats =
  (* (relation, toward) -> the first per-root node seen for the view, its
     merged slot index by key, and its merged slots in reverse *)
  let merged = Hashtbl.create 16 in
  let slot_count = ref 0 in
  (* Merge one per-root node as the view toward [toward]; returns the
     merged slot index of each of its per-root slots. *)
  let rec merge toward (n : node) : int array =
    let name = Relation.name n.rel in
    let child_maps = Array.of_list (List.map (merge (Some name)) n.children) in
    let _, index, slots =
      match Hashtbl.find_opt merged (name, toward) with
      | Some m -> m
      | None ->
          let m = (n, Hashtbl.create 16, ref []) in
          Hashtbl.add merged (name, toward) m;
          m
    in
    Array.map2
      (fun (s : slot) key ->
        match Hashtbl.find_opt index key with
        | Some j -> j
        | None ->
            let j = Hashtbl.length index in
            Hashtbl.add index key j;
            incr slot_count;
            let child_slots = Array.mapi (fun c cs -> child_maps.(c).(cs)) s.child_slots in
            slots := { s with child_slots } :: !slots;
            j)
      n.slots n.slot_keys
  in
  let root_maps = List.map (fun r -> (r, merge None r.tree)) rooted in
  (* the schedule, over (relation, toward) pairs *)
  let cardinality name = Relation.cardinality (Join_tree.relation_by_name jt name) in
  let largest names =
    List.fold_left
      (fun acc n ->
        match acc with
        | Some b when cardinality b >= cardinality n -> acc
        | _ -> Some n)
      None names
  in
  let name (n : Join_tree.node) = Relation.name n.rel in
  let c = Option.get (largest (List.map Relation.name (Join_tree.relations jt))) in
  let tree = Join_tree.tree ~root:c jt in
  let big = largest (List.map name tree.children) in
  let is_big ch = Some (name ch) = big in
  (* each step: its scans, and the node of N for the merged step *)
  let steps = ref [] in
  let existing = List.filter (Hashtbl.mem merged) in
  let step rel views =
    match existing views with [] -> () | vs -> steps := (None, [ (rel, vs) ]) :: !steps
  in
  let toward (n : Join_tree.node) parent = (name n, Some parent) in
  let own (n : Join_tree.node) = (name n, None) :: List.map (fun g -> toward n (name g)) n.children in
  let rec up (n : Join_tree.node) =
    List.iter
      (fun ch ->
        up ch;
        if not (is_big ch) then step (name ch) [ toward ch (name n) ])
      n.children
  in
  let rec down (n : Join_tree.node) =
    List.iter
      (fun ch ->
        if not (is_big ch) then step (name ch) (own ch);
        down ch)
      n.children
  in
  up tree;
  let at_c =
    (c, None) :: List.filter_map (fun ch -> if is_big ch then None else Some (c, Some (name ch))) tree.children
  in
  (* without N's views there is no C->N either: C is scanned once *)
  (match List.find_opt is_big tree.children with
  | Some n when existing (toward n c :: own n) <> [] ->
      steps :=
        ( Some n,
          [
            (name n, existing [ toward n c ]);
            (c, existing at_c);
            (c, existing [ (c, Some (name n)) ]);
            (name n, existing (own n));
          ] )
        :: !steps
  | _ -> step c at_c);
  down tree;
  let steps = List.rev !steps in
  (* number the views in schedule order *)
  let order = List.concat_map (fun (_, scans) -> List.concat_map snd scans) steps in
  let ids = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.add ids v (Hashtbl.length ids)) order;
  assert (Hashtbl.length ids = Hashtbl.length merged);
  let views =
    order
    |> List.map (fun ((name, _) as v) ->
           let (n : node), _, slots = Hashtbl.find merged v in
           let child (ch : node) = Hashtbl.find ids (Relation.name ch.rel, Some name) in
           let v_scan_filter, v_slots = hoist_filters (Array.of_list (List.rev !slots)) in
           {
             v_rel = name;
             v_key = n.key_positions;
             v_children = Array.of_list (List.map child n.children);
             v_child_keys = n.child_keys;
             v_scan_filter;
             v_slots;
             v_families = [||];
           })
    |> Array.of_list
  in
  (* families, children first: a family's source names its children's *)
  let slot_family = Array.make (Array.length views) [||] in
  let views =
    Array.mapi
      (fun id v ->
        let family = families (Array.map (fun c -> slot_family.(c)) v.v_children) v.v_slots in
        slot_family.(id) <- family;
        let n = Array.fold_left (fun n f -> Stdlib.max n (f + 1)) 0 family in
        let members = Array.make n [] in
        for s = Array.length family - 1 downto 0 do
          if family.(s) >= 0 then members.(family.(s)) <- s :: members.(family.(s))
        done;
        Obs.add c_families n;
        { v with v_families = Array.map Array.of_list members })
      views
  in
  Array.iteri (fun id v -> assert (Array.for_all (fun c -> c < id) v.v_children)) views;
  (* the partial updates the plan implies: per view, slots times rows *)
  Obs.add c_slot_rows
    (Array.fold_left (fun n v -> n + (Array.length v.v_slots * cardinality v.v_rel)) 0 views);
  let outputs =
    List.concat_map
      (fun (r, map) ->
        let root = Hashtbl.find ids (r.root, None) in
        List.map
          (fun ((s : Spec.t), key) -> (s, root, map.(Hashtbl.find r.tree.slot_index key)))
          r.requests)
      root_maps
  in
  let stats =
    {
      views = Array.length views;
      partials = !slot_count;
      shared_away = stats.shared_away + stats.partials - !slot_count;
    }
  in
  Obs.add c_views stats.views;
  Obs.add c_partials stats.partials;
  Obs.add c_shared_away stats.shared_away;
  ( {
      views;
      steps =
        List.map
          (fun (n, scans) ->
            let scans = List.map (fun (rel, vs) -> (rel, Array.of_list (List.map (Hashtbl.find ids) vs))) scans in
            match (n, scans) with
            | None, [ sc ] -> Scan sc
            | Some (n : Join_tree.node), [ (_, up); (_, c_views); (_, c_to_n); (_, down) ] ->
                let positions r = Array.of_list (List.map (Schema.position (Relation.schema r)) n.key) in
                Merge
                  {
                    n_rel = name n;
                    c_rel = c;
                    n_key = positions n.rel;
                    c_key = positions (Join_tree.relation_by_name jt c);
                    up;
                    c_views;
                    c_to_n;
                    down;
                  }
            | _ -> assert false)
          steps;
      outputs;
    },
    stats )
