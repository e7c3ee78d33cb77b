(* Closure-compile a batch's [Plan.grouped] against a live database and
   run it: one scan per view group, in the plan's order.

   Every directed view lives in [Flat_view] storage: dense rows in
   insertion order with their packed keys recorded, scalar partials
   contiguous per row in fixed-size float blocks, grouped partials as
   per-(row, slot) entry chains in int and float blocks. A view whose keys
   arrived in increasing order — one computed by a scan of a relation
   clustered on its key ([Database.create]) — has no hash index, and a
   scan whose probe keys never step backwards reads it through a forward
   cursor: a merge join. Binding happens once per view per
   chunk of a scan: relations are resolved by name, term columns are taken
   as the live unboxed arrays, key readers pack straight to ints, filters
   are compiled by [Predicate.compile_cols] against the chunk's columns,
   and each slot becomes one kernel closure with its payload offset and
   child probe indexes pre-resolved. Per input row, each incoming view is
   probed once and its matched row's scalar block, offset and first cell
   are resolved once; each output row likewise, before its slots run. The
   scan loop allocates nothing per row: keys are ints, a float never
   crosses a call that is not inlined, and the multi-part grouped path
   enumerates combinations through preallocated int and float arrays.
   Only the boxed paths — keys that do not pack, term columns read lazily
   through [Column.float_at] — allocate.

   Results are deterministic to the bit because float operations happen
   in a fixed order: term products are left-associated starting from 1.0,
   scalar children multiply in child order after the terms and grouped
   children's values after those in reverse child order, slots accumulate
   in slot-array order, rows accumulate in scan order and are inserted into
   the view before any filter is tested, and parallel scans use the fixed
   [Pool.parallel_chunks] decomposition and merge order. A grouped entry
   is created at -0.0, so its first addition stores the operand bit for
   bit, and a parallel merge copies the partials of a key new to its
   target. A row adds at most once into each key of a grouped partial —
   the group variables a slot's own columns and its children contribute
   are disjoint — so the order in which one row visits its keys never
   reaches the bits. *)

open Relational
module Spec = Aggregates.Spec
module V = Flat_view

(* Where a slot's partial lives in a view row — scalar [idx], or grouped
   slot [idx] — and, for a grouped slot, the group variables its keys
   pack, in name order. *)
type layout = { idx : int; scalar : bool; vars : string array }

(* Specialization fallbacks: term columns that are boxed. *)
let c_fallbacks = Obs.counter "lmfao.compile.fallbacks"
let c_tuples_scanned = Obs.counter "lmfao.tuples_scanned"
let c_roots = Obs.counter "lmfao.roots"
let c_merge_probes = Obs.counter "lmfao.merge_probes"
let c_hash_probes = Obs.counter "lmfao.hash_probes"

(* ---------- entry access ---------- *)

(* [Flat_view]'s block arithmetic, inlined into the kernels: a call into
   another module is not inlined when modules compile opaquely (as in
   dune's default profile), and a float such a call takes or returns is
   boxed. *)
let pair_bits = V.pair_bits
let pair_mask = (1 lsl pair_bits) - 1
let value_bits = V.block_bits
let value_mask = V.block_size - 1

let[@inline] head (v : V.t) cell =
  Array.unsafe_get (Array.unsafe_get v.V.cells (cell lsr pair_bits)) ((cell land pair_mask) lsl 1)

let[@inline] key_of (v : V.t) e =
  Array.unsafe_get (Array.unsafe_get v.V.links (e lsr pair_bits)) ((e land pair_mask) lsl 1)

let[@inline] next_of (v : V.t) e =
  Array.unsafe_get
    (Array.unsafe_get v.V.links (e lsr pair_bits))
    (((e land pair_mask) lsl 1) + 1)

let[@inline] value_of (v : V.t) e =
  Array.unsafe_get (Array.unsafe_get v.V.values (e lsr value_bits)) (e land value_mask)

let[@inline] add_to (v : V.t) e x =
  let b = Array.unsafe_get v.V.values (e lsr value_bits) in
  let o = e land value_mask in
  Array.unsafe_set b o (Array.unsafe_get b o +. x)

(* Row [r]'s scalar block, and the offset of its first scalar there. *)
let[@inline] scalar_block (v : V.t) r =
  if v.V.scalars > 0 then Array.unsafe_get v.V.blocks (r lsr v.V.shift) else [||]

let[@inline] scalar_base (v : V.t) r = (r land ((1 lsl v.V.shift) - 1)) * v.V.scalars

(* The entry of [cell] in [out] for the key of entry [e] of [src]. *)
let[@inline] entry_from out cell (src : V.t) e =
  let k = key_of src e in
  if k <> V.nopack then V.entry out cell k else V.entry_boxed out cell (V.boxed_key src e)

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

(* A term column as the kernels read it: the live unboxed array, or, for
   a boxed column (counted in [lmfao.compile.fallbacks]), the column
   itself, read per row through [Column.float_at] — so a cell no matched
   row reaches is never converted. *)
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

(* A slot's coefficient: the term product times its scalar children's
   partials ([js]: probe index, [idxs]: scalar slot), in child order. *)
let[@inline] coeff terms powers (pr : probes) (js : int array) (idxs : int array) i =
  let v = ref (product terms powers i) in
  for c = 0 to Array.length js - 1 do
    let j = Array.unsafe_get js c in
    v :=
      !v
      *. Array.unsafe_get (Array.unsafe_get pr.blk j)
           (Array.unsafe_get pr.base j + Array.unsafe_get idxs c)
  done;
  !v

(* ---------- kernels ---------- *)

(* One slot's kernel: [k i blk base cell0] adds input row [i] into the
   output row whose scalars start at [blk.(base)] and whose cells start at
   [cell0]. *)
type kernel = int -> float array -> int -> int -> unit

(* Every combination of one entry per grouped part, for the multi-part
   grouped kernel: the state its recursion reads and writes, allocated
   once per binding. *)
type combo = {
  out : V.t;
  parts : V.t array;  (* per part, in reverse child order: its child view *)
  part_probe : int array;  (* its probe index *)
  part_idx : int array;  (* its grouped slot in the child *)
  part_arity : int array;  (* its key's arity *)
  part_cell : int array;  (* the cell it enumerates for the current row *)
  chosen : int array;  (* the entry it contributes to the current combination *)
  prod : float array;  (* [prod.(g)]: the product before part [g] *)
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
   every field fits, else [V.nopack]. Merged keys have arity >= 2, so
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
        if p = V.nopack then -1 else field st.part_arity.(g) st.f_pos.(!j) p
    in
    acc := if x >= 0 && x < st.bound then (!acc lsl st.width) lor x else -1;
    incr j
  done;
  if !acc >= 0 then !acc else V.nopack

(* The same key boxed, for a combination whose key does not pack there:
   the values any other producer of this key would read. *)
let merged_tuple st : Tuple.t =
  Array.init (Array.length st.f_part) (fun j ->
      let g = st.f_part.(j) and f = st.f_pos.(j) in
      if g < 0 then Column.get st.cols.(f) st.row
      else
        let src = st.parts.(g) and e = st.chosen.(g) in
        let p = key_of src e in
        if p = V.nopack then (V.boxed_key src e).(f)
        else (Keypack.unpack st.part_arity.(g) p).(f))

(* Add every combination of one entry per part from part [g] on, the
   running product multiplied by the parts' values in part order. *)
let rec enumerate st g =
  if g = Array.length st.parts then begin
    let k = merged_key st in
    let e =
      if k <> V.nopack then V.entry st.out st.target k
      else
        let key = merged_tuple st in
        let k = V.pack_tuple key in
        if k <> V.nopack then V.entry st.out st.target k
        else V.entry_boxed st.out st.target key
    in
    add_to st.out e (Array.unsafe_get st.prod g)
  end
  else begin
    let src = Array.unsafe_get st.parts g in
    let e = ref (head src (Array.unsafe_get st.part_cell g)) in
    while !e >= 0 do
      Array.unsafe_set st.chosen g !e;
      Array.unsafe_set st.prod (g + 1) (Array.unsafe_get st.prod g *. value_of src !e);
      enumerate st (g + 1);
      e := next_of src !e
    done
  end

(* The kernel of a grouped slot. The coefficient is the term product times
   the scalar children's partials in child order; the grouped children
   ("parts") then multiply in reverse child order. Three shapes:
   - no part: the key is the row's local group columns;
   - no local group and one part (the hot root shape): each of the part's
     keys, scaled by the coefficient;
   - otherwise: every combination of one key per part, merged with the
     local group values. *)
let grouped_kernel cols (s : Plan.slot) (l : layout) (refs : layout array)
    (wire : int array) (pr : probes) (out : V.t) terms powers
    (filt : int -> bool) : kernel =
  let children = List.init (Array.length refs) Fun.id in
  let scalars = List.filter (fun c -> refs.(c).scalar) children in
  let js = Array.of_list (List.map (fun c -> wire.(c)) scalars) in
  let idxs = Array.of_list (List.map (fun c -> refs.(c).idx) scalars) in
  let parts =
    Array.of_list (List.rev (List.filter (fun c -> not refs.(c).scalar) children))
  in
  let locals = List.sort compare (Array.to_list s.Plan.local_groups) in
  let gidx = l.idx in
  match (parts, locals) with
  | [||], _ ->
      let positions = Array.of_list (List.map snd locals) in
      let key = V.reader cols positions in
      fun i _ _ cell0 ->
        if filt i then begin
          let v = coeff terms powers pr js idxs i in
          let cell = cell0 + gidx in
          let k = key i in
          let e =
            if k <> V.nopack then V.entry out cell k
            else V.entry_boxed out cell (V.key_tuple cols positions i)
          in
          add_to out e v
        end
  | [| c |], [] ->
      let j = wire.(c) and cidx = refs.(c).idx in
      let src = pr.views.(j) in
      fun i _ _ cell0 ->
        if filt i then begin
          let v = coeff terms powers pr js idxs i in
          let cell = cell0 + gidx in
          let e = ref (head src (Array.unsafe_get pr.cell j + cidx)) in
          while !e >= 0 do
            let x = v *. value_of src !e in
            add_to out (entry_from out cell src !e) x;
            e := next_of src !e
          done
        end
  | _ ->
      let np = Array.length parts in
      let source var =
        match List.assoc_opt var locals with
        | Some pos -> (-1, pos)
        | None ->
            let rec find g f =
              let vars = refs.(parts.(g)).vars in
              if f = Array.length vars then find (g + 1) 0
              else if String.equal vars.(f) var then (g, f)
              else find g (f + 1)
            in
            find 0 0
      in
      let fields = Array.map source l.vars in
      let width = Keypack.field_width (Array.length l.vars) in
      let st =
        {
          out;
          parts = Array.map (fun c -> pr.views.(wire.(c))) parts;
          part_probe = Array.map (fun c -> wire.(c)) parts;
          part_idx = Array.map (fun c -> refs.(c).idx) parts;
          part_arity = Array.map (fun c -> Array.length refs.(c).vars) parts;
          part_cell = Array.make np 0;
          chosen = Array.make np 0;
          prod = Array.make (np + 1) 0.0;
          f_part = Array.map fst fields;
          f_pos = Array.map snd fields;
          f_ints =
            Array.map
              (fun (g, pos) ->
                if g >= 0 then [||]
                else match Column.data cols.(pos) with Column.Ints a -> a | _ -> [||])
              fields;
          width;
          bound = 1 lsl width;
          cols;
          row = 0;
          target = 0;
        }
      in
      fun i _ _ cell0 ->
        if filt i then begin
          st.row <- i;
          st.target <- cell0 + gidx;
          for g = 0 to np - 1 do
            st.part_cell.(g) <- pr.cell.(st.part_probe.(g)) + st.part_idx.(g)
          done;
          st.prod.(0) <- coeff terms powers pr js idxs i;
          enumerate st 0
        end

(* ---------- view binding ---------- *)

(* Payload layout: scalars and grouped partials counted separately in slot
   order; a grouped slot's variables are its own group columns and its
   children's variables, in name order. *)
let layouts_of (view : Plan.view) (child_layouts : layout array array) =
  let ns = ref 0 and ng = ref 0 in
  Array.map
    (fun (s : Plan.slot) ->
      if s.Plan.scalar then begin
        incr ns;
        { idx = !ns - 1; scalar = true; vars = [||] }
      end
      else begin
        incr ng;
        let vars =
          Array.concat
            (Array.map fst s.Plan.local_groups
            :: Array.to_list
                 (Array.mapi
                    (fun c cs -> child_layouts.(c).(cs).vars)
                    s.Plan.child_slots))
        in
        Array.sort compare vars;
        { idx = !ng - 1; scalar = false; vars }
      end)
    view.Plan.v_slots

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

(* Bind one view to a chunk's live columns: [feed i] adds row [i] into
   [out] when every child of the view matched ([wire]: child -> probe
   index). The row's key is inserted BEFORE any filter runs: an
   all-filters-false row still creates a zero row. *)
let bind_view schema cols (view : Plan.view) (layout : layout array)
    (child_refs : layout array array) (wire : int array) (pr : probes)
    (out : V.t) : int -> unit =
  let n_children = Array.length wire in
  let n_slots = Array.length view.Plan.v_slots in
  let own_key = V.reader cols view.Plan.v_key in
  let scan_ok = compile_conjuncts schema cols view.Plan.v_scan_filter in
  let kernels : kernel array =
    Array.mapi
      (fun s_idx (s : Plan.slot) ->
        let filt = compile_conjuncts schema cols s.Plan.local_filter in
        let terms = Array.map (fun (pos, _) -> term cols.(pos)) s.Plan.local_terms in
        let powers = Array.map snd s.Plan.local_terms in
        let l = layout.(s_idx) and refs = child_refs.(s_idx) in
        if l.scalar then begin
          (* every child of a scalar slot is scalar *)
          let idxs = Array.map (fun (r : layout) -> r.idx) refs in
          let p = l.idx in
          if s.Plan.local_filter = [] then fun i blk base _ ->
            let v = coeff terms powers pr wire idxs i in
            let o = base + p in
            Array.unsafe_set blk o (Array.unsafe_get blk o +. v)
          else fun i blk base _ ->
            if filt i then begin
              let v = coeff terms powers pr wire idxs i in
              let o = base + p in
              Array.unsafe_set blk o (Array.unsafe_get blk o +. v)
            end
        end
        else grouped_kernel cols s l refs wire pr out terms powers filt)
      view.Plan.v_slots
  in
  let rec matched c =
    c = n_children
    || (Array.unsafe_get pr.hit (Array.unsafe_get wire c) >= 0 && matched (c + 1))
  in
  fun i ->
    if matched 0 then begin
      let k = own_key i in
      let r =
        if k <> V.nopack then V.row out k
        else V.row_boxed out (V.key_tuple cols view.Plan.v_key i)
      in
      if scan_ok i then begin
        let blk = scalar_block out r and base = scalar_base out r in
        let cell0 = r * out.V.grouped in
        for s = 0 to n_slots - 1 do
          (Array.unsafe_get kernels s) i blk base cell0
        done
      end
    end

(* ---------- view groups ---------- *)

(* One scan of [rel_name] computing every view in [out_ids]. Each
   incoming view (a child of some output) is probed once per row, in
   first-use order; a row feeds every output whose own children all
   matched, so a row with no partner in one incoming view still counts
   toward the output that does not read it. A miss in an incoming view
   that every output reads ends the row early.

   An in-order incoming view is probed through a forward cursor per chunk
   while the chunk's probe keys do not step backwards, and through its
   hash index otherwise: a sequential scan builds the index at its first
   backward step, and a parallel scan, before its chunks start, for every
   in-order view whose probe keys step backwards anywhere in the
   relation, so no index is built while chunks run. Either way a probe
   finds the same row. *)
let scan_group ~parallel ~chunk_threshold db (g : Plan.grouped)
    (layouts : layout array array) (live : V.t option array)
    (rel_name, out_ids) : V.t array =
  let outs = Array.map (fun v -> g.Plan.views.(v)) out_ids in
  (* the incoming views, each once in first-use order, with the key
     columns that probe them (every output reads a child by its edge) *)
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
  let n_inc = Array.length incoming in
  let probe_index c =
    let rec go j = if fst incoming.(j) = c then j else go (j + 1) in
    go 0
  in
  let wires = Array.map (fun (o : Plan.view) -> Array.map probe_index o.Plan.v_children) outs in
  let required =
    Array.init n_inc (fun j -> Array.for_all (fun w -> Array.mem j w) wires)
  in
  let inc_views = Array.map (fun (c, _) -> Option.get live.(c)) incoming in
  let out_layouts = Array.map (fun v -> layouts.(v)) out_ids in
  (* per output slot: the layout of each child slot its kernel reads *)
  let child_refs =
    Array.map
      (fun (o : Plan.view) ->
        Array.map
          (fun (s : Plan.slot) ->
            Array.mapi (fun c cs -> layouts.(o.Plan.v_children.(c)).(cs)) s.Plan.child_slots)
          o.Plan.v_slots)
      outs
  in
  let rel = Database.relation db rel_name in
  Array.iter (fun o -> count_fallbacks o (Relation.columns rel)) outs;
  (* [scan_into] is invoked once per chunk — a parallel slice of the
     resident relation, or one streamed page chunk. Everything
     representation-dependent (term columns, key readers, filters,
     kernels, probe scratch) is specialised inside against THIS relation's
     live columns, so concurrent chunks never share mutable state and
     streamed chunks bind to their own pages. Construction is O(slots),
     amortised over a chunk of rows. *)
  let scan_into rel (accs : V.t array) lo len =
    Obs.add c_tuples_scanned len;
    ignore (Relation.scan rel);
    let schema = Relation.schema rel and cols = Relation.columns rel in
    let probe_key = Array.map (fun (_, key) -> V.reader cols key) incoming in
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
        (fun o view ->
          bind_view schema cols view out_layouts.(o) child_refs.(o) wires.(o) pr accs.(o))
        outs
    in
    let n_out = Array.length feeds in
    (* per incoming view: hashed, or its cursor and last probe key *)
    let hashed = Array.map (fun v -> not (V.in_order v)) inc_views in
    let cursor_at = Array.make n_inc 0 and last = Array.make n_inc V.nopack in
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
        if k = V.nopack then begin
          incr hashes;
          V.find_boxed v (V.key_tuple cols (snd incoming.(j)) i)
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
        pr.cell.(j) <- r * v.V.grouped;
        probe i (j + 1)
      end
      else (not required.(j)) && probe i (j + 1)
    in
    for i = lo to lo + len - 1 do
      if probe i 0 then
        for o = 0 to n_out - 1 do
          (Array.unsafe_get feeds o) i
        done
    done;
    Obs.add c_merge_probes !merges;
    Obs.add c_hash_probes !hashes
  in
  let fresh () =
    Array.map
      (fun (ls : layout array) ->
        let ns = Array.fold_left (fun n l -> if l.scalar then n + 1 else n) 0 ls in
        V.create ~scalars:ns ~grouped:(Array.length ls - ns))
      out_layouts
  in
  match Database.stream db rel_name with
  | Some chunks ->
      (* Out-of-core: sequential page chunks into ONE set of views, in
         global row order — the float-op sequence of a sequential
         in-memory scan, hence bit-identical to it. Parallel chunking
         stays off here. *)
      let accs = fresh () in
      chunks (fun chunk -> scan_into chunk accs 0 (Relation.cardinality chunk));
      accs
  | None ->
      let n = Relation.cardinality rel in
      if parallel && n > chunk_threshold then begin
        let cols = Relation.columns rel in
        Array.iteri
          (fun j (_, key) ->
            let v = inc_views.(j) in
            if V.in_order v then begin
              let key = V.reader cols key in
              let rec forward i prev =
                i = n
                ||
                let k = key i in
                if k = V.nopack then forward (i + 1) prev
                else k >= prev && forward (i + 1) k
              in
              if not (forward 0 V.nopack) then V.ensure_index v
            end)
          incoming;
        Util.Pool.parallel_chunks n
          (fun lo len ->
            let accs = fresh () in
            scan_into rel accs lo len;
            accs)
          ~combine:(fun acc v ->
            match acc with
            | None -> Some v
            | Some a ->
                Array.iter2 V.merge a v;
                Some a)
          ~zero:None
        |> Option.fold ~none:(fresh ()) ~some:Fun.id
      end
      else begin
        let accs = fresh () in
        scan_into rel accs 0 n;
        accs
      end

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
  let layouts = Array.make nv [||] in
  Array.iteri
    (fun v (view : Plan.view) ->
      layouts.(v) <- layouts_of view (Array.map (fun c -> layouts.(c)) view.Plan.v_children))
    g.Plan.views;
  let is_root = Array.make nv false in
  List.iter (fun (_, v, _) -> is_root.(v) <- true) g.Plan.outputs;
  (* the last scan that reads each view; it is dropped after that scan *)
  let last_read = Array.make nv (-1) in
  List.iteri
    (fun s (_, out_ids) ->
      Array.iter
        (fun v -> Array.iter (fun c -> last_read.(c) <- s) g.Plan.views.(v).Plan.v_children)
        out_ids)
    g.Plan.scans;
  let live = Array.make nv None in
  List.iteri
    (fun s ((rel_name, out_ids) as sc) ->
      let computed =
        Obs.with_span ("lmfao.view:" ^ rel_name) (fun () ->
            scan_group ~parallel ~chunk_threshold db g layouts live sc)
      in
      Array.iteri
        (fun k v ->
          if is_root.(v) then Obs.incr c_roots;
          live.(v) <- Some computed.(k))
        out_ids;
      Array.iteri (fun v last -> if last = s then live.(v) <- None) last_read)
    g.Plan.scans;
  List.map
    (fun ((spec : Spec.t), v, slot) ->
      let l = layouts.(v).(slot) in
      let view = Option.get live.(v) in
      (* a root view has the single empty key, which packs as 0 *)
      let result =
        match V.find view 0 with
        | -1 -> if l.scalar then [ ([], 0.0) ] else []
        | r ->
            if l.scalar then [ ([], V.scalar view r l.idx) ]
            else
              bindings l.vars
                (V.cell_bindings view
                   ((r * view.V.grouped) + l.idx)
                   ~arity:(Array.length l.vars))
      in
      (spec.id, result))
    g.Plan.outputs
