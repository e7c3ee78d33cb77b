(* Bind a batch's [Plan.grouped] against a live database and run it: one
   scan per view group, in the plan's order, and the merged edge's four
   scans as one loop over key blocks (see "the merged edge" below).

   Every directed view lives in [Flat_view] storage: dense rows in
   insertion order with their packed keys recorded, scalar partials
   contiguous per row in fixed-size float blocks, and grouped partials as
   per-(row, family) entry chains whose entries hold one value per member
   of the family. A view whose keys arrived in increasing order — one
   computed by a scan of a relation clustered on its key
   ([Database.create]) — has no hash index, and a scan whose probe keys
   never step backwards reads it through a forward cursor: a merge join.

   Each view runs as one program. Once per scan, its slots are compiled
   into index arrays: every distinct local term product and every
   distinct local conjunct list gets a number, the scalar slots become one
   multiply-add loop, and the grouped slots run by family ([Plan.view]'s
   [v_families]: slots with the same local group columns, local filter and
   child families, hence the same keys). Once per chunk of the scan, the
   program binds to the live columns: relations are resolved by name, term
   columns are taken as the live unboxed arrays, key readers pack straight
   to ints, and filters are compiled by [Predicate.compile_cols]. Per
   input row, each incoming view is probed once and its matched row's
   scalar block, offset and first cell are resolved once; each output row
   likewise. Then each distinct conjunct list is tested once, each
   distinct product is computed once, the scalar slots run, and each
   family whose filter passed finds its keys once — one lookup, one walk
   of its grouped child's chain, or one enumeration of its children's
   combinations — for all its members. The scan loop allocates nothing
   per row: keys are ints, a float never crosses a call that is not
   inlined, and the multi-part grouped path enumerates combinations
   through preallocated int and float arrays. Only the boxed paths — keys
   that do not pack, term columns read lazily through [Column.float_at] —
   allocate.

   Results are deterministic to the bit because each member's float
   operations happen in a fixed order: term products are left-associated
   starting from 1.0, scalar children multiply in child order after the
   terms and grouped children's values after those in reverse child
   order, rows accumulate in scan order and are inserted into the view
   before any filter is tested, and parallel scans use the fixed
   [Pool.parallel_chunks] decomposition and merge order. Sharing a product
   or a conjunct list between slots, or a key lookup between the members
   of a family, changes no operation a member's value sees. A grouped
   entry's values are created at -0.0, so a member's first addition
   stores the operand bit for bit, and a parallel merge copies the
   partials of a key new to its target. A row adds at most once into each
   key of a grouped partial — the group variables a slot's own columns and
   its children contribute are disjoint — so the order in which one row
   visits its keys never reaches the bits. *)

open Relational
module Spec = Aggregates.Spec
module V = Flat_view

(* Where a view's slots live in its rows: per slot its scalar index, or
   its family and its member index there; per family its members and the
   group variables its keys pack, in name order. *)
type layout = {
  place : int array;  (* per slot: scalar index, or member in its family *)
  family : int array;  (* per slot: its family, -1 for a scalar slot *)
  widths : int array;  (* per family: its members *)
  vars : string array array;  (* per family: its group variables *)
  n_scalars : int;
}

(* Specialization fallbacks: term columns that are boxed. *)
let c_fallbacks = Obs.counter "lmfao.compile.fallbacks"
let c_tuples_scanned = Obs.counter "lmfao.tuples_scanned"
let c_roots = Obs.counter "lmfao.roots"
let c_merge_probes = Obs.counter "lmfao.merge_probes"
let c_hash_probes = Obs.counter "lmfao.hash_probes"
let c_parallel_scans = Obs.counter "lmfao.parallel_scans"

(* ---------- entry access ---------- *)

(* [Flat_view]'s block arithmetic, inlined into the programs: a call into
   another module is not inlined when modules compile opaquely (as in
   dune's default profile), and a float such a call takes or returns is
   boxed. *)
let pair_bits = 8
let value_bits = 9
let () = assert (pair_bits = V.pair_bits && value_bits = V.block_bits)
let pair_mask = (1 lsl pair_bits) - 1
let value_mask = (1 lsl value_bits) - 1

let[@inline] head (v : V.t) cell =
  Array.unsafe_get (Array.unsafe_get v.V.cells (cell lsr pair_bits)) ((cell land pair_mask) lsl 1)

(* Entry [e]'s key and next entry; its values start at offset [e]. *)
let[@inline] key_of (v : V.t) e =
  Array.unsafe_get (Array.unsafe_get v.V.links (e lsr value_bits)) ((e land value_mask) lsl 1)

let[@inline] next_of (v : V.t) e =
  Array.unsafe_get
    (Array.unsafe_get v.V.links (e lsr value_bits))
    (((e land value_mask) lsl 1) + 1)

(* The value block holding offset [o]; [o land value_mask] is its place. *)
let[@inline] block_at (v : V.t) o = Array.unsafe_get v.V.values (o lsr value_bits)

(* Row [r]'s scalar block, and the offset of its first scalar there. *)
let[@inline] scalar_block (v : V.t) r =
  if v.V.scalars > 0 then Array.unsafe_get v.V.blocks (r lsr v.V.shift) else [||]

let[@inline] scalar_base (v : V.t) r = (r land ((1 lsl v.V.shift) - 1)) * v.V.scalars

(* The entry of [cell] in [out] for the key of entry [e] of [src]. *)
let[@inline] entry_from out cell (src : V.t) e =
  let k = key_of src e in
  if k <> Keypack.nopack then V.entry out cell k else V.entry_boxed out cell (V.boxed_key src e)

(* Add [xs.(base)] .. [xs.(base + n - 1)] into the [n] members of entry [o]
   of [out]. *)
let[@inline] add_values (out : V.t) o (xs : float array) base n =
  let b = block_at out o and o = o land value_mask in
  if n = 1 then Array.unsafe_set b o (Array.unsafe_get b o +. Array.unsafe_get xs base)
  else
    for m = 0 to n - 1 do
      Array.unsafe_set b (o + m) (Array.unsafe_get b (o + m) +. Array.unsafe_get xs (base + m))
    done

(* ---------- filters ---------- *)

(* A conjunction of filter conjuncts, compiled against a chunk's live
   columns. *)
let compile_conjuncts schema cols = function
  | [] -> fun _ -> true
  | [ p ] -> Predicate.compile_cols schema cols p
  | ps ->
      let compiled = List.map (Predicate.compile_cols schema cols) ps in
      fun i -> List.for_all (fun f -> f i) compiled

(* ---------- term products ---------- *)

(* A term column as the programs read it: the live unboxed array, or, for
   a boxed column (counted in [lmfao.compile.fallbacks]), the column
   itself, read per row through [Column.float_at] — so a cell no matched
   row whose filter passes reaches is never converted. *)
type term = Tf of float array | Ti of int array | Tlazy of Column.t

let term col =
  match Column.data col with
  | Column.Floats a -> Tf a
  | Column.Ints a -> Ti a
  | Column.Boxed _ -> Tlazy col

(* Left-associated product starting from 1.0:
   [local := 1.0; local := !local *. x; ...]. *)
let[@inline] product (terms : term array) (powers : int array) i =
  let acc = ref 1.0 in
  for t = 0 to Array.length terms - 1 do
    let x =
      match Array.unsafe_get terms t with
      | Tf a -> Array.unsafe_get a i
      | Ti a -> float_of_int (Array.unsafe_get a i)
      | Tlazy c -> Column.float_at c i
    in
    for _ = 1 to Array.unsafe_get powers t do
      acc := !acc *. x
    done
  done;
  !acc

(* ---------- probes ---------- *)

(* The incoming views of one scan chunk and, per input row, the row each
   matched (-1: none) with that row's scalar block, first scalar offset
   and first cell, resolved once per input row. *)
type probes = {
  views : V.t array;
  hit : int array;
  blk : float array array;
  base : int array;
  cell : int array;
}

(* The partial at scalar index [idx] of the row probe [j] matched. *)
let[@inline] child_scalar (pr : probes) j idx =
  Array.unsafe_get (Array.unsafe_get pr.blk j) (Array.unsafe_get pr.base j + idx)

(* ---------- programs ---------- *)

(* How a family finds its keys for a row:
   - [Local]: no grouped child; the key is the row's local group columns
     (their positions, in name order);
   - [One]: no local group and one grouped child (the hot root shape):
     each key of that child's family, at the child's cell of the family;
   - [Many]: every combination of one key per grouped child ("part"),
     merged with the local group values. *)
type shape = Local of int array | One | Many of many

and many = {
  parts : int array;  (* the grouped children, in reverse child order *)
  part_arity : int array;  (* per part: the arity of its keys *)
  f_part : int array;
      (* per field of the merged key, in name order: its part, or -1 for
         a local column *)
  f_pos : int array;  (* the local column's position, or the field in the part's key *)
}

(* A family of the view: its members' term products and scalar children,
   and, per grouped child, the child family and each member's member
   there. *)
type family = {
  cell : int;  (* the family's cell in a row *)
  members : int;
  filter : int;  (* its conjunct list, or -1 *)
  prod : int array;  (* per member: its term product *)
  scalar_children : int array;  (* in child order *)
  scalar_idx : int array;
      (* per member m and scalar child c, at [m * |scalar_children| + c]:
         the child partial's scalar index *)
  grouped_children : int array;  (* in child order *)
  child_family : int array;  (* per grouped child: its family in the child *)
  child_member : int array;
      (* per grouped child g and member m, at [g * members + m]: the
         member's member in the child family *)
  shape : shape;
}

(* A view's program, fixed once per scan. *)
type program = {
  products : (int * int) array array;  (* distinct local (position, power) lists *)
  conjuncts : Predicate.t list array;  (* distinct non-empty local conjunct lists *)
  product_filters : int array array;
      (* per product: the conjunct lists of the slots using it, [||] when
         one of them has none *)
  (* the scalar slots, in slot order, which is their order in a row's
     scalar block *)
  s_filter : int array;  (* per scalar slot: its conjunct list, or -1 *)
  s_prod : int array;  (* its term product *)
  s_child : int array;  (* per scalar slot s and child c, at [s * children + c]: its scalar *)
  families : family array;
}

(* Payload layout: scalars counted in slot order; a family's variables
   are its first member's own group columns and its children's families'
   variables, in name order. *)
let layout_of (view : Plan.view) (children : layout array) : layout =
  let slots = view.Plan.v_slots in
  let place = Array.make (Array.length slots) 0 and family = Array.make (Array.length slots) (-1) in
  let n_scalars = ref 0 in
  Array.iteri
    (fun s (slot : Plan.slot) ->
      if slot.Plan.scalar then begin
        place.(s) <- !n_scalars;
        incr n_scalars
      end)
    slots;
  Array.iteri
    (fun f members ->
      Array.iteri
        (fun m s ->
          family.(s) <- f;
          place.(s) <- m)
        members)
    view.Plan.v_families;
  let vars members =
    let s = slots.(members.(0)) in
    let child c cs =
      let l = children.(c) in
      if l.family.(cs) < 0 then [||] else l.vars.(l.family.(cs))
    in
    let v =
      Array.concat (Array.map fst s.Plan.local_groups :: Array.to_list (Array.mapi child s.Plan.child_slots))
    in
    Array.sort compare v;
    v
  in
  {
    place;
    family;
    widths = Array.map Array.length view.Plan.v_families;
    vars = Array.map vars view.Plan.v_families;
    n_scalars = !n_scalars;
  }

(* Number each distinct value [x] of a table as it is first met. *)
let numbering () =
  let tbl = Hashtbl.create 16 and items = ref [] in
  let id x =
    match Hashtbl.find_opt tbl x with
    | Some i -> i
    | None ->
        let i = Hashtbl.length tbl in
        Hashtbl.add tbl x i;
        items := x :: !items;
        i
  in
  (id, fun () -> Array.of_list (List.rev !items))

let program (view : Plan.view) (l : layout) (children : layout array) : program =
  let slots = view.Plan.v_slots in
  let n_children = Array.length children in
  let prod_id, products = numbering () and conj_id, conjuncts = numbering () in
  let users = Hashtbl.create 16 in
  let use (s : Plan.slot) =
    let q = prod_id s.Plan.local_terms in
    let f =
      match List.sort_uniq compare s.Plan.local_filter with [] -> -1 | c -> conj_id c
    in
    Hashtbl.replace users q (f :: Option.value ~default:[] (Hashtbl.find_opt users q));
    (q, f)
  in
  (* slot [s]'s partial in child [c]: its scalar index or its member *)
  let child_place s c = children.(c).place.(slots.(s).Plan.child_slots.(c)) in
  let concat_map g a = Array.concat (Array.to_list (Array.map g a)) in
  let scalars = List.filter (fun s -> l.family.(s) < 0) (List.init (Array.length slots) Fun.id) in
  let scalars = Array.of_list (List.map (fun s -> (s, use slots.(s))) scalars) in
  let s_child = concat_map (fun (s, _) -> Array.init n_children (child_place s)) scalars in
  let family f members =
    let first = slots.(members.(0)) in
    let uses = Array.map (fun s -> use slots.(s)) members in
    let grouped c = children.(c).family.(first.Plan.child_slots.(c)) >= 0 in
    let all = List.init n_children Fun.id in
    let scalar_children = Array.of_list (List.filter (fun c -> not (grouped c)) all) in
    let grouped_children = Array.of_list (List.filter grouped all) in
    let locals = List.sort compare (Array.to_list first.Plan.local_groups) in
    let child_family =
      Array.map (fun c -> children.(c).family.(first.Plan.child_slots.(c))) grouped_children
    in
    let shape =
      match (grouped_children, locals) with
      | [||], _ -> Local (Array.of_list (List.map snd locals))
      | [| _ |], [] -> One
      | _ ->
          let parts = Array.of_list (List.rev (List.init (Array.length grouped_children) Fun.id)) in
          let part_vars g =
            let c = grouped_children.(parts.(g)) in
            children.(c).vars.(child_family.(parts.(g)))
          in
          let source var =
            match List.assoc_opt var locals with
            | Some pos -> (-1, pos)
            | None ->
                let rec find g f =
                  let vars = part_vars g in
                  if f = Array.length vars then find (g + 1) 0
                  else if String.equal vars.(f) var then (g, f)
                  else find g (f + 1)
                in
                find 0 0
          in
          let fields = Array.map source l.vars.(f) in
          Many
            {
              parts;
              part_arity = Array.init (Array.length parts) (fun g -> Array.length (part_vars g));
              f_part = Array.map fst fields;
              f_pos = Array.map snd fields;
            }
    in
    {
      cell = f;
      members = Array.length members;
      filter = snd uses.(0);
      prod = Array.map fst uses;
      scalar_children;
      scalar_idx = concat_map (fun s -> Array.map (child_place s) scalar_children) members;
      grouped_children;
      child_family;
      child_member =
        concat_map (fun c -> Array.map (fun s -> child_place s c) members) grouped_children;
      shape;
    }
  in
  let families = Array.mapi family view.Plan.v_families in
  let products = products () in
  {
    products;
    conjuncts = conjuncts ();
    product_filters =
      Array.init (Array.length products) (fun q ->
          let fs = Hashtbl.find users q in
          if List.mem (-1) fs then [||] else Array.of_list (List.sort_uniq compare fs));
    s_filter = Array.map (fun (_, (_, f)) -> f) scalars;
    s_prod = Array.map (fun (_, (q, _)) -> q) scalars;
    s_child;
    families;
  }

(* ---------- binding ---------- *)

(* Every combination of one entry per grouped part, for a [Many] family:
   the state its recursion reads and writes, allocated once per binding. *)
type combo = {
  out : V.t;
  nm : int;  (* the family's members *)
  parts : V.t array;  (* per part, in reverse child order: its child view *)
  part_probe : int array;  (* its probe index *)
  part_family : int array;  (* its family in the child *)
  part_member : int array;  (* per part g and member m, at [g * nm + m]: the member there *)
  part_arity : int array;  (* its key's arity *)
  part_cell : int array;  (* the cell it enumerates for the current row *)
  chosen : int array;  (* the entry it contributes to the current combination *)
  prod : float array;
      (* per member m, at [g * nm + m]: its product before part [g]; the
         members' coefficients at [0, nm) *)
  (* per field of the merged key, in name order: a local column
     ([f_part] -1, [f_pos] its position, [f_ints] its int array or [||]
     when it is not [Ints]) or field [f_pos] of part [f_part]'s key *)
  f_part : int array;
  f_pos : int array;
  f_ints : int array array;
  width : int;
  bound : int;
  cols : Column.t array;
  mutable row : int;
  mutable target : int;  (* the output cell *)
}

(* Field [f] of a packed key [p] of arity [arity]. *)
let[@inline] field arity f p =
  if arity = 1 then p
  else
    let w = Keypack.field_width arity in
    (p asr ((arity - 1 - f) * w)) land ((1 lsl w) - 1)

(* The merged key of the current combination, packed without boxing when
   every field fits, else [Keypack.nopack]. Merged keys have arity >= 2, so
   packed ones are non-negative and -1 flags a field that does not fit. *)
let merged_key st =
  let acc = ref 0 and j = ref 0 in
  let n = Array.length st.f_part in
  while !acc >= 0 && !j < n do
    let g = Array.unsafe_get st.f_part !j in
    let x =
      if g < 0 then
        let a = Array.unsafe_get st.f_ints !j in
        if Array.length a = 0 then -1 else Array.unsafe_get a st.row
      else
        let p = key_of st.parts.(g) st.chosen.(g) in
        if p = Keypack.nopack then -1 else field st.part_arity.(g) st.f_pos.(!j) p
    in
    acc := if x >= 0 && x < st.bound then (!acc lsl st.width) lor x else -1;
    incr j
  done;
  if !acc >= 0 then !acc else Keypack.nopack

(* The same key boxed, for a combination whose key does not pack there:
   the values any other producer of this key would read. *)
let merged_tuple st : Tuple.t =
  Array.init (Array.length st.f_part) (fun j ->
      let g = st.f_part.(j) and f = st.f_pos.(j) in
      if g < 0 then Column.get st.cols.(f) st.row
      else
        let src = st.parts.(g) and e = st.chosen.(g) in
        let p = key_of src e in
        if p = Keypack.nopack then (V.boxed_key src e).(f)
        else (Keypack.unpack st.part_arity.(g) p).(f))

(* Add every combination of one entry per part from part [g] on, each
   member's running product multiplied by its values in part order. *)
let rec enumerate st g =
  let nm = st.nm in
  if g = Array.length st.parts then begin
    let k = merged_key st in
    let o =
      if k <> Keypack.nopack then V.entry st.out st.target k
      else
        let key = merged_tuple st in
        let k = Keypack.pack_tuple key in
        if k <> Keypack.nopack then V.entry st.out st.target k
        else V.entry_boxed st.out st.target key
    in
    add_values st.out o st.prod (g * nm) nm
  end
  else begin
    let src = Array.unsafe_get st.parts g in
    let e = ref (head src (Array.unsafe_get st.part_cell g)) in
    while !e >= 0 do
      Array.unsafe_set st.chosen g !e;
      let b = block_at src !e and o = !e land value_mask in
      if nm = 1 then
        Array.unsafe_set st.prod (g + 1)
          (Array.unsafe_get st.prod g *. Array.unsafe_get b (o + Array.unsafe_get st.part_member g))
      else
        for m = 0 to nm - 1 do
          let i = (g * nm) + m in
          Array.unsafe_set st.prod (i + nm)
            (Array.unsafe_get st.prod i
            *. Array.unsafe_get b (o + Array.unsafe_get st.part_member i))
        done;
      enumerate st (g + 1);
      e := next_of src !e
    done
  end

(* How a bound family finds its keys: [One]'s probe index, or [Many]'s
   combination state. *)
type keys = K_local of (int -> int) * int array | K_one of int | K_many of combo

(* Bind a family to a chunk's live columns. *)
let bind_family cols (wire : int array) (pr : probes) (out : V.t) (f : family) =
  match f.shape with
  | Local positions -> K_local (Keypack.reader cols positions, positions)
  | One -> K_one wire.(f.grouped_children.(0))
  | Many m ->
      let np = Array.length m.parts and nm = f.members in
      let child g = f.grouped_children.(m.parts.(g)) in
      K_many
        {
          out;
          nm;
          parts = Array.init np (fun g -> pr.views.(wire.(child g)));
          part_probe = Array.init np (fun g -> wire.(child g));
          part_family = Array.init np (fun g -> f.child_family.(m.parts.(g)));
          part_member =
            Array.init (np * nm) (fun i -> f.child_member.((m.parts.(i / nm) * nm) + (i mod nm)));
          part_arity = m.part_arity;
          part_cell = Array.make np 0;
          chosen = Array.make np 0;
          prod = Array.make ((np + 1) * nm) 0.0;
          f_part = m.f_part;
          f_pos = m.f_pos;
          f_ints =
            Array.map2
              (fun g pos ->
                if g >= 0 then [||]
                else match Column.data cols.(pos) with Column.Ints a -> a | _ -> [||])
              m.f_part m.f_pos;
          width = Keypack.field_width (Array.length m.f_part);
          bound = 1 lsl Keypack.field_width (Array.length m.f_part);
          cols;
          row = 0;
          target = 0;
        }

(* Count specialization fallbacks for one view binding: term columns
   whose live representation is boxed. *)
let count_fallbacks (view : Plan.view) cols =
  Array.iter
    (fun (s : Plan.slot) ->
      Array.iter
        (fun (pos, _) ->
          match Column.data cols.(pos) with
          | Column.Boxed _ -> Obs.incr c_fallbacks
          | Column.Ints _ | Column.Floats _ -> ())
        s.Plan.local_terms)
    view.Plan.v_slots

(* Bind one view's program to a chunk's live columns: [feed i] adds row
   [i] into [out] when every child of the view matched ([wire]: child ->
   probe index). The row's key is inserted BEFORE any filter runs: an
   all-filters-false row still creates a zero row. *)
let bind_view schema cols (view : Plan.view) (p : program) (wire : int array) (pr : probes)
    (out : V.t) : int -> unit =
  let n_children = Array.length wire in
  let own_key = Keypack.reader cols view.Plan.v_key in
  let scan_ok = compile_conjuncts schema cols view.Plan.v_scan_filter in
  let filters = Array.map (compile_conjuncts schema cols) p.conjuncts in
  let n_filters = Array.length filters in
  let ok = Array.make n_filters false in
  let terms = Array.map (Array.map (fun (pos, _) -> term cols.(pos))) p.products in
  let powers = Array.map (Array.map snd) p.products in
  (* a product with a boxed term is computed only for a row where a slot
     using it passes its filter; the others always *)
  let boxed q = Array.exists (function Tlazy _ -> true | Tf _ | Ti _ -> false) terms.(q) in
  let eager, on_demand = List.partition (fun q -> not (boxed q)) (List.init (Array.length terms) Fun.id) in
  let eager = Array.of_list eager and on_demand = Array.of_list on_demand in
  let pv = Array.make (Array.length terms) 0.0 in
  let needed q =
    let fs = p.product_filters.(q) in
    let rec any j = j < Array.length fs && (ok.(fs.(j)) || any (j + 1)) in
    Array.length fs = 0 || any 0
  in
  let n_scalars = Array.length p.s_filter in
  let families = p.families in
  let n_families = Array.length families in
  (* Members [0, n) in one multiply-add loop: member m, when its conjunct
     list [filters.(m)] passes (-1: none), has the coefficient of its term
     product [prod.(m)] times its scalar children's partials in child order
     ([probes]: the children's probe indexes; [idx.(m * |probes| + c)]:
     child c's scalar index), stored at [dst.(o + m)] or, with [add], added
     there. Unrolled for up to two children. A view's scalar slots run as
     the members of one such loop, added into the row's scalar block. *)
  let coefficients filters prod idx probes n (dst : float array) o add =
    match Array.length probes with
    | 0 ->
        for m = 0 to n - 1 do
          let f = Array.unsafe_get filters m in
          if f < 0 || Array.unsafe_get ok f then begin
            let v = Array.unsafe_get pv (Array.unsafe_get prod m) and d = o + m in
            Array.unsafe_set dst d (if add then Array.unsafe_get dst d +. v else v)
          end
        done
    | 1 ->
        let j = Array.unsafe_get probes 0 in
        let b = Array.unsafe_get pr.blk j and bo = Array.unsafe_get pr.base j in
        for m = 0 to n - 1 do
          let f = Array.unsafe_get filters m in
          if f < 0 || Array.unsafe_get ok f then begin
            let v =
              Array.unsafe_get pv (Array.unsafe_get prod m)
              *. Array.unsafe_get b (bo + Array.unsafe_get idx m)
            and d = o + m in
            Array.unsafe_set dst d (if add then Array.unsafe_get dst d +. v else v)
          end
        done
    | 2 ->
        let j0 = Array.unsafe_get probes 0 and j1 = Array.unsafe_get probes 1 in
        let b0 = Array.unsafe_get pr.blk j0 and o0 = Array.unsafe_get pr.base j0 in
        let b1 = Array.unsafe_get pr.blk j1 and o1 = Array.unsafe_get pr.base j1 in
        for m = 0 to n - 1 do
          let f = Array.unsafe_get filters m in
          if f < 0 || Array.unsafe_get ok f then begin
            let v =
              Array.unsafe_get pv (Array.unsafe_get prod m)
              *. Array.unsafe_get b0 (o0 + Array.unsafe_get idx (2 * m))
              *. Array.unsafe_get b1 (o1 + Array.unsafe_get idx ((2 * m) + 1))
            and d = o + m in
            Array.unsafe_set dst d (if add then Array.unsafe_get dst d +. v else v)
          end
        done
    | nc ->
        for m = 0 to n - 1 do
          let f = Array.unsafe_get filters m in
          if f < 0 || Array.unsafe_get ok f then begin
            let v = ref (Array.unsafe_get pv (Array.unsafe_get prod m)) in
            for c = 0 to nc - 1 do
              v :=
                !v
                *. child_scalar pr (Array.unsafe_get probes c)
                     (Array.unsafe_get idx ((m * nc) + c))
            done;
            let d = o + m in
            Array.unsafe_set dst d (if add then Array.unsafe_get dst d +. !v else !v)
          end
        done
  in
  (* Each family as one closure [run i cell0], its shape, constants and
     working arrays bound in: when its filter passes, its members'
     coefficients go to its keys for row [i], whose output row's cells
     start at [cell0]. *)
  let runner (f : family) : int -> int -> unit =
    let cv = Array.make f.members 0.0 in
    let probes = Array.map (fun c -> wire.(c)) f.scalar_children in
    let filter = f.filter and nm = f.members and fc = f.cell in
    (* the family's filter is tested once, before its members run *)
    let unfiltered = Array.make nm (-1) and prod = f.prod and idx = f.scalar_idx in
    match bind_family cols wire pr out f with
    | K_local (key, positions) ->
        fun i cell0 ->
          if filter < 0 || Array.unsafe_get ok filter then begin
            let cell = cell0 + fc in
            let k = key i in
            let o =
              if k <> Keypack.nopack then V.entry out cell k
              else V.entry_boxed out cell (Keypack.tuple cols positions i)
            in
            coefficients unfiltered prod idx probes nm (block_at out o) (o land value_mask) true
          end
    | K_one j ->
        let members = f.child_member and cfam = f.child_family.(0) in
        fun _ cell0 ->
          if filter < 0 || Array.unsafe_get ok filter then begin
            coefficients unfiltered prod idx probes nm cv 0 false;
            let src = Array.unsafe_get pr.views j in
            let cell = cell0 + fc in
            let e = ref (head src (Array.unsafe_get pr.cell j + cfam)) in
            while !e >= 0 do
              let tof = entry_from out cell src !e in
              let sb = block_at src !e and so = !e land value_mask in
              let tb = block_at out tof and tof = tof land value_mask in
              for m = 0 to nm - 1 do
                let x =
                  Array.unsafe_get cv m *. Array.unsafe_get sb (so + Array.unsafe_get members m)
                in
                Array.unsafe_set tb (tof + m) (Array.unsafe_get tb (tof + m) +. x)
              done;
              e := next_of src !e
            done
          end
    | K_many st ->
        fun i cell0 ->
          if filter < 0 || Array.unsafe_get ok filter then begin
            coefficients unfiltered prod idx probes nm st.prod 0 false;
            st.row <- i;
            st.target <- cell0 + fc;
            for g = 0 to Array.length st.parts - 1 do
              st.part_cell.(g) <- pr.cell.(st.part_probe.(g)) + st.part_family.(g)
            done;
            enumerate st 0
          end
  in
  let runners = Array.map runner families in
  let rec matched c =
    c = n_children
    || (Array.unsafe_get pr.hit (Array.unsafe_get wire c) >= 0 && matched (c + 1))
  in
  fun i ->
    if matched 0 then begin
      let k = own_key i in
      let r =
        if k <> Keypack.nopack then V.row out k
        else V.row_boxed out (Keypack.tuple cols view.Plan.v_key i)
      in
      if scan_ok i then begin
        for f = 0 to n_filters - 1 do
          Array.unsafe_set ok f ((Array.unsafe_get filters f) i)
        done;
        for e = 0 to Array.length eager - 1 do
          let q = Array.unsafe_get eager e in
          Array.unsafe_set pv q (product (Array.unsafe_get terms q) (Array.unsafe_get powers q) i)
        done;
        for d = 0 to Array.length on_demand - 1 do
          let q = on_demand.(d) in
          if needed q then pv.(q) <- product terms.(q) powers.(q) i
        done;
        if n_scalars > 0 then
          coefficients p.s_filter p.s_prod p.s_child wire n_scalars (scalar_block out r)
            (scalar_base out r) true;
        let cell0 = r * out.V.families in
        for k = 0 to n_families - 1 do
          (Array.unsafe_get runners k) i cell0
        done
      end
    end

(* ---------- view groups ---------- *)

(* One scan's views, compiled once: their programs, and the incoming
   views they read (children of some output), each once in first-use
   order with the key columns that probe it (every output reads a child
   by its edge). *)
type group = {
  outs : Plan.view array;
  out_layouts : layout array;
  programs : program array;
  incoming : (int * int array) array;  (* view id, probe key positions *)
  wires : int array array;  (* per output, per child: its probe index *)
  required : bool array;  (* per probe: every output reads it *)
}

let compile_group db (g : Plan.grouped) (layouts : layout array) (rel_name, out_ids) : group =
  let outs = Array.map (fun v -> g.Plan.views.(v)) out_ids in
  let incoming =
    Array.fold_left
      (fun acc (o : Plan.view) ->
        Array.fold_left
          (fun acc ck -> if List.mem_assoc (fst ck) acc then acc else acc @ [ ck ])
          acc
          (Array.combine o.Plan.v_children o.Plan.v_child_keys))
      [] outs
    |> Array.of_list
  in
  let probe_index c =
    let rec go j = if fst incoming.(j) = c then j else go (j + 1) in
    go 0
  in
  let wires = Array.map (fun (o : Plan.view) -> Array.map probe_index o.Plan.v_children) outs in
  let out_layouts = Array.map (fun v -> layouts.(v)) out_ids in
  Array.iter (fun o -> count_fallbacks o (Relation.columns (Database.relation db rel_name))) outs;
  {
    outs;
    out_layouts;
    programs =
      Array.mapi
        (fun o (view : Plan.view) ->
          program view out_layouts.(o) (Array.map (fun c -> layouts.(c)) view.Plan.v_children))
        outs;
    incoming;
    wires;
    required =
      Array.init (Array.length incoming) (fun j -> Array.for_all (fun w -> Array.mem j w) wires);
  }

(* Empty views for a group's outputs. *)
let fresh (grp : group) =
  Array.map (fun (l : layout) -> V.create ~scalars:l.n_scalars ~widths:l.widths) grp.out_layouts

(* A group bound to one chunk's columns: [run lo len] feeds rows
   [lo, lo + len) into the outputs, [restart ()] sends the probe cursors
   back to the first row, as a probed view that was {!V.reset} needs. *)
type scanner = { run : int -> int -> unit; restart : unit -> unit }

let no_scan = { run = (fun _ _ -> ()); restart = ignore }

(* Bind [grp] to [rel]'s live columns, probing [inc_views] (one per
   incoming view) and feeding [accs] (one per output). Each row probes
   every incoming view once; a row feeds every output whose own children
   all matched, so a row with no partner in one incoming view still counts
   toward the output that does not read it, and a miss in an incoming view
   that every output reads ends the row early.

   An in-order incoming view is probed through a forward cursor while the
   probe keys do not step backwards, and through its hash index from the
   first step back, which builds it. Either way a probe finds the same
   row.

   Everything representation-dependent (term columns, key readers,
   filters, the per-row product, combination and probe arrays) is bound
   here against THIS relation's live columns, so concurrent chunks never
   share mutable state and streamed chunks bind to their own pages.
   Binding is O(slots), amortised over the rows it runs. *)
let bind (grp : group) (inc_views : V.t array) rel (accs : V.t array) : scanner =
  ignore (Relation.scan rel);
  let n_inc = Array.length grp.incoming in
  let schema = Relation.schema rel and cols = Relation.columns rel in
  let probe_key = Array.map (fun (_, key) -> Keypack.reader cols key) grp.incoming in
  let pr =
    {
      views = inc_views;
      hit = Array.make n_inc (-1);
      blk = Array.make n_inc [||];
      base = Array.make n_inc 0;
      cell = Array.make n_inc 0;
    }
  in
  let feeds =
    Array.mapi
      (fun o view -> bind_view schema cols view grp.programs.(o) grp.wires.(o) pr accs.(o))
      grp.outs
  in
  let n_out = Array.length feeds in
  let required = grp.required in
  (* per incoming view: hashed, or its cursor and last probe key *)
  let hashed = Array.make n_inc false in
  let cursor_at = Array.make n_inc 0 and last = Array.make n_inc Keypack.nopack in
  let restart () =
    for j = 0 to n_inc - 1 do
      hashed.(j) <- not (V.in_order inc_views.(j));
      cursor_at.(j) <- 0;
      last.(j) <- Keypack.nopack
    done
  in
  restart ();
  let merges = ref 0 and hashes = ref 0 in
  (* an in-order view's row for [k]: by the cursor while the probe keys
     do not step backwards, by the hash index from the first step back *)
  let cursor j (v : V.t) k =
    if k >= Array.unsafe_get last j then begin
      Array.unsafe_set last j k;
      incr merges;
      let keys = v.V.keys and rows = v.V.rows in
      let c = Array.unsafe_get cursor_at j in
      let c = if c < rows && Array.unsafe_get keys c < k then V.seek v c k else c in
      Array.unsafe_set cursor_at j c;
      if c < rows && Array.unsafe_get keys c = k then c else -1
    end
    else begin
      V.ensure_index v;
      Array.unsafe_set hashed j true;
      incr hashes;
      V.find v k
    end
  in
  let rec probe i j =
    j = n_inc
    ||
    let v = inc_views.(j) in
    let k = probe_key.(j) i in
    let r =
      if k = Keypack.nopack then begin
        incr hashes;
        V.find_boxed v (Keypack.tuple cols (snd grp.incoming.(j)) i)
      end
      else if Array.unsafe_get hashed j then begin
        incr hashes;
        V.find v k
      end
      else cursor j v k
    in
    pr.hit.(j) <- r;
    if r >= 0 then begin
      pr.blk.(j) <- scalar_block v r;
      pr.base.(j) <- scalar_base v r;
      pr.cell.(j) <- r * v.V.families;
      probe i (j + 1)
    end
    else (not required.(j)) && probe i (j + 1)
  in
  let run lo len =
    Obs.add c_tuples_scanned len;
    merges := 0;
    hashes := 0;
    for i = lo to lo + len - 1 do
      if probe i 0 then
        for o = 0 to n_out - 1 do
          (Array.unsafe_get feeds o) i
        done
    done;
    Obs.add c_merge_probes !merges;
    Obs.add c_hash_probes !hashes
  in
  { run; restart }

(* One scan of [rel_name] computing [grp]'s views from [inc_views]. A
   streamed relation runs its page chunks in global row order into ONE set
   of views: the float-op sequence of a sequential in-memory scan, hence
   bit-identical to it, and never chunked across domains. Each chunk is
   released once its rows have run. With [parallel],
   a resident relation above [chunk_threshold] rows runs in chunks merged
   in a fixed order; before they start, every in-order incoming view whose
   probe keys step backwards anywhere in the relation gets its index, so
   no index is built while chunks run. *)
let scan_group ~parallel ~chunk_threshold db (grp : group) inc_views rel_name : V.t array =
  match Database.stream db rel_name with
  | Some chunks ->
      let accs = fresh grp in
      Seq.iter
        (fun chunk ->
          (bind grp inc_views chunk accs).run 0 (Relation.cardinality chunk);
          chunks.release chunk)
        chunks.seq;
      accs
  | None ->
      let rel = Database.relation db rel_name in
      let n = Relation.cardinality rel in
      if parallel && n > chunk_threshold then begin
        Obs.incr c_parallel_scans;
        let cols = Relation.columns rel in
        Array.iteri
          (fun j (_, key) ->
            let v = inc_views.(j) in
            if V.in_order v then begin
              let key = Keypack.reader cols key in
              let rec forward i prev =
                i = n
                ||
                let k = key i in
                if k = Keypack.nopack then forward (i + 1) prev
                else k >= prev && forward (i + 1) k
              in
              if not (forward 0 Keypack.nopack) then V.ensure_index v
            end)
          grp.incoming;
        Util.Pool.parallel_chunks n
          (fun lo len ->
            let accs = fresh grp in
            (bind grp inc_views rel accs).run lo len;
            accs)
          ~combine:(fun acc v ->
            match acc with
            | None -> Some v
            | Some a ->
                Array.iter2 V.merge a v;
                Some a)
          ~zero:None
        |> Option.fold ~none:(fresh grp) ~some:Fun.id
      end
      else begin
        let accs = fresh grp in
        (bind grp inc_views rel accs).run 0 n;
        accs
      end

(* ---------- the merged edge ---------- *)

(* A merged step (see [Plan.merge]) runs as one loop over key blocks of
   about [block_rows] rows of N, cut at key boundaries: each key's N rows
   and C rows fall in one block. Per block, the block's N rows compute
   N->C into a transient view, the C rows of the same key range run once
   for all of C's views, C->N going into a second transient view, and the
   block's N rows run again for N's down views. Every other view is fed
   whole, across blocks, and every view is fed its rows in scan order; a
   key's N->C or C->N partial is complete before anything reads it, since
   it holds every row of that key. So each view sees the float-op sequence
   of the step's four separate scans, and the results are theirs to the
   bit, while N->C and C->N never hold more than one block's keys and C is
   scanned once.

   The blocks need both relations in non-decreasing packed order on the
   edge key. A resident relation is checked in one pass over its key
   columns first; a streamed one as its chunks arrive, and the first
   violation abandons the blocks run so far. A step whose relations are
   not in order or whose keys do not pack, or one whose N or C scan would
   be chunked across domains, runs as one block: the four scans. *)
let block_rows = 1024

let c_merge_blocks = Obs.counter "lmfao.merge_blocks"
let c_merge_fallbacks = Obs.counter "lmfao.merge_fallbacks"

(* Why a merged step runs as one block, each counted in its own
   [lmfao.merge_fallbacks.<why>]. *)
type why = Parallel | Unpacked | Unordered

exception Fall_back of why

let c_why =
  let c w = Obs.counter ("lmfao.merge_fallbacks." ^ w) in
  let parallel = c "parallel" and unpacked = c "unpacked" and unordered = c "order" in
  function Parallel -> parallel | Unpacked -> unpacked | Unordered -> unordered

(* One chunk of a merged relation: its rows, its edge-key reader, and the
   scanners bound to it (N: its up and down scans; C: its one scan). *)
type piece = { rows : int; key : int -> int; first : scanner; second : scanner }

let no_piece = { rows = 0; key = (fun _ -> 0); first = no_scan; second = no_scan }

(* A merged relation read one chunk at a time: the chunks not reached
   yet, the chunks pulled and not released (the current one first), the
   current one's piece and the next row there. A side that is not
   [checked] (a streamed relation) checks every key it reads against the
   last. *)
type side = {
  checked : bool;
  bind_piece : Relation.t -> piece;
  release : Relation.t -> unit;
  mutable rest : Relation.t Seq.t;
  mutable held : Relation.t list;
  mutable piece : piece;
  mutable pos : int;
  mutable last : int;
}

(* Whether [s] has a row left, pulling its next non-empty chunk when the
   current one is done. *)
let rec avail s =
  s.pos < s.piece.rows
  ||
  match s.rest () with
  | Seq.Nil -> false
  | Seq.Cons (chunk, rest) ->
      s.rest <- rest;
      s.held <- chunk :: s.held;
      s.piece <- s.bind_piece chunk;
      s.pos <- 0;
      avail s

(* After a block has run: release every chunk [s] pulled but the current
   one, whose rows the next block may read ([avail] may have pulled it to
   look at its first key). Newest first, so that a reader that keeps its
   leases newest first, as [Store.Paged] does, finds each at the front. *)
let release_finished s =
  match s.held with
  | current :: (_ :: _ as finished) ->
      List.iter s.release finished;
      s.held <- [ current ]
  | _ -> ()

(* Row [i]'s edge key in the current chunk, checked when [s] is not. *)
let key s i =
  let k = s.piece.key i in
  if not s.checked then begin
    if k = Keypack.nopack then raise (Fall_back Unpacked);
    if k < s.last then raise (Fall_back Unordered);
    s.last <- k
  end;
  k

(* Why a resident relation's rows are not in non-decreasing packed order
   on [key], if they are not. *)
let unordered rel key =
  let k = Keypack.reader (Relation.columns rel) key and n = Relation.cardinality rel in
  let rec go i prev =
    if i = n then None
    else
      let x = k i in
      if x = Keypack.nopack then Some Unpacked else if x < prev then Some Unordered else go (i + 1) x
  in
  go 0 min_int

(* The next block's N rows as (chunk, first row, rows) segments in row
   order, and the largest key they hold; [max_int] when no N row is left
   after them, so that the block takes every C row left. *)
let cut_n n =
  let segs = ref [] and count = ref 0 in
  while !count < block_rows && avail n do
    let p = n.piece and lo = n.pos in
    let len = Stdlib.min (p.rows - lo) (block_rows - !count) in
    if not n.checked then
      for i = lo to lo + len - 1 do
        ignore (key n i)
      done;
    segs := (p, lo, len) :: !segs;
    count := !count + len;
    n.pos <- lo + len
  done;
  let hi = match !segs with (p, lo, len) :: _ -> p.key (lo + len - 1) | [] -> max_int in
  (* the rows of the last key, through the chunks they span *)
  while avail n && key n n.pos = hi do
    let p = n.piece and lo = n.pos in
    let e = ref (lo + 1) in
    while !e < p.rows && key n !e = hi do
      incr e
    done;
    segs := (p, lo, !e - lo) :: !segs;
    n.pos <- !e
  done;
  (List.rev !segs, if avail n then hi else max_int)

(* The C rows of keys up to [hi], as segments in row order. *)
let cut_c c hi =
  let all = hi = max_int && c.checked in
  let segs = ref [] in
  while avail c && (all || key c c.pos <= hi) do
    let p = c.piece and lo = c.pos in
    let e = ref (if all then p.rows else lo + 1) in
    while !e < p.rows && key c !e <= hi do
      incr e
    done;
    segs := (p, lo, !e - lo) :: !segs;
    c.pos <- !e
  done;
  List.rev !segs

(* Run merged step [m] by key blocks: the views it computes that outlive
   it, as (view ids, views), or [None] when it must run as one block,
   counted with the reason. Every chunk pulled is released by the end,
   whichever way the step ends. *)
let merged_step ~parallel ~chunk_threshold db (g : Plan.grouped) layouts live (m : Plan.merge) =
  let stream name = Database.stream db name in
  let resident name = Option.is_none (stream name) in
  let chunked name =
    parallel && resident name && Relation.cardinality (Database.relation db name) > chunk_threshold
  in
  let check name key =
    if resident name then Option.iter (fun w -> raise (Fall_back w)) (unordered (Database.relation db name) key)
  in
  let sides = ref [] in
  Fun.protect ~finally:(fun () -> List.iter (fun s -> List.iter s.release s.held) !sides) @@ fun () ->
  try
    if chunked m.Plan.n_rel || chunked m.Plan.c_rel then raise (Fall_back Parallel);
    check m.Plan.n_rel m.Plan.n_key;
    check m.Plan.c_rel m.Plan.c_key;
    let group rel ids = if ids = [||] then None else Some (compile_group db g layouts (rel, ids)) in
    let up = group m.Plan.n_rel m.Plan.up
    and at_c = group m.Plan.c_rel (Array.append m.Plan.c_views m.Plan.c_to_n)
    and down = group m.Plan.n_rel m.Plan.down in
    let outs = Option.fold ~none:[||] ~some:fresh in
    let up_outs = outs up and c_outs = outs at_c and down_outs = outs down in
    (* the transient views: N->C, and C->N, the last of C's outputs *)
    let nc = up_outs and cn = Array.sub c_outs (Array.length m.Plan.c_views) (Array.length m.Plan.c_to_n) in
    let view id =
      if m.Plan.up = [| id |] then nc.(0)
      else if m.Plan.c_to_n = [| id |] then cn.(0)
      else Option.get live.(id)
    in
    let binder grp accs =
      match grp with
      | None -> fun _ -> no_scan
      | Some grp ->
          let inc = Array.map (fun (c, _) -> view c) grp.incoming in
          fun chunk -> bind grp inc chunk accs
    in
    let side name key first second =
      let chunks =
        match stream name with
        | Some chunks -> chunks
        | None -> { Database.seq = Seq.return (Database.relation db name); release = ignore }
      in
      let s =
        {
          checked = resident name;
          bind_piece =
            (fun chunk ->
              {
                rows = Relation.cardinality chunk;
                key = Keypack.reader (Relation.columns chunk) key;
                first = first chunk;
                second = second chunk;
              });
          release = chunks.release;
          rest = chunks.seq;
          held = [];
          piece = no_piece;
          pos = 0;
          last = min_int;
        }
      in
      sides := s :: !sides;
      s
    in
    let n = side m.Plan.n_rel m.Plan.n_key (binder up up_outs) (binder down down_outs) in
    let c = side m.Plan.c_rel m.Plan.c_key (binder at_c c_outs) (fun _ -> no_scan) in
    let run scanner segs =
      List.iter
        (fun (p, lo, len) ->
          (scanner p).restart ();
          (scanner p).run lo len)
        segs
    in
    while avail n || avail c do
      let n_segs, hi = cut_n n in
      let c_segs = cut_c c hi in
      Array.iter V.reset nc;
      Array.iter V.reset cn;
      run (fun p -> p.first) n_segs;
      run (fun p -> p.first) c_segs;
      run (fun p -> p.second) n_segs;
      release_finished n;
      release_finished c;
      Obs.incr c_merge_blocks
    done;
    Some [ (m.Plan.c_views, Array.sub c_outs 0 (Array.length m.Plan.c_views)); (m.Plan.down, down_outs) ]
  with Fall_back why ->
    Obs.incr c_merge_fallbacks;
    Obs.incr (c_why why);
    None

(* ---------- batch execution ---------- *)

(* A grouped partial's groups, sorted in [Faggregate.Grouped.Key.compare]
   order: every key assigns the same names in the same order, so that
   order is the lexicographic [Value.compare] order of the values. *)
let bindings (vars : string array) (pairs : (Tuple.t * float) list) : Spec.result =
  List.map
    (fun (values, v) -> (Array.to_list (Array.map2 (fun n x -> (n, x)) vars values), v))
    (List.sort (fun (a, _) (b, _) -> Tuple.compare a b) pairs)

let run ~parallel ~chunk_threshold db (g : Plan.grouped) :
    (string * Spec.result) list =
  let nv = Array.length g.Plan.views in
  (* children come first, so one pass lays every view out *)
  let layouts = Array.make nv { place = [||]; family = [||]; widths = [||]; vars = [||]; n_scalars = 0 } in
  Array.iteri
    (fun v (view : Plan.view) ->
      layouts.(v) <- layout_of view (Array.map (fun c -> layouts.(c)) view.Plan.v_children))
    g.Plan.views;
  let is_root = Array.make nv false in
  List.iter (fun (_, v, _) -> is_root.(v) <- true) g.Plan.outputs;
  (* the last scan, run as one block, that reads each view; it is dropped
     after that scan (a merged step run by blocks: after the step) *)
  let last_read = Array.make nv (-1) in
  List.iteri
    (fun s (_, out_ids) ->
      Array.iter
        (fun v -> Array.iter (fun c -> last_read.(c) <- s) g.Plan.views.(v).Plan.v_children)
        out_ids)
    (List.concat_map Plan.scans g.Plan.steps);
  let live = Array.make nv None in
  let keep out_ids computed =
    Array.iteri
      (fun k v ->
        if is_root.(v) then Obs.incr c_roots;
        live.(v) <- Some computed.(k))
      out_ids
  in
  let drop s = Array.iteri (fun v last -> if last = s then live.(v) <- None) last_read in
  let scan s ((rel_name, out_ids) as sc) =
    Obs.with_span ("lmfao.view:" ^ rel_name) (fun () ->
        let grp = compile_group db g layouts sc in
        let inc = Array.map (fun (c, _) -> Option.get live.(c)) grp.incoming in
        keep out_ids (scan_group ~parallel ~chunk_threshold db grp inc rel_name));
    drop s
  in
  ignore
    (List.fold_left
       (fun s0 step ->
         let scans = Plan.scans step in
         (match step with
         | Plan.Scan sc -> scan s0 sc
         | Plan.Merge m -> (
             Obs.with_span ("lmfao.merge:" ^ m.Plan.n_rel ^ "," ^ m.Plan.c_rel) @@ fun () ->
             match merged_step ~parallel ~chunk_threshold db g layouts live m with
             | Some computed ->
                 List.iter (fun (out_ids, views) -> keep out_ids views) computed;
                 List.iteri (fun i _ -> drop (s0 + i)) scans
             | None -> List.iteri (fun i sc -> scan (s0 + i) sc) scans));
         s0 + List.length scans)
       0 g.Plan.steps);
  List.map
    (fun ((spec : Spec.t), v, slot) ->
      let l = layouts.(v) in
      let view = Option.get live.(v) in
      let f = l.family.(slot) and place = l.place.(slot) in
      (* a root view has the single empty key, which packs as 0 *)
      let result =
        match V.find view 0 with
        | -1 -> if f < 0 then [ ([], 0.0) ] else []
        | r ->
            if f < 0 then [ ([], V.scalar view r place) ]
            else
              bindings l.vars.(f)
                (V.cell_bindings view
                   ((r * view.V.families) + f)
                   ~arity:(Array.length l.vars.(f)) ~member:place)
      in
      (spec.id, result))
    g.Plan.outputs
