(* Stage 3: closure-compile a physical IR plan against a live database and
   run it: one scan per view group, in the plan's order.

   Binding happens once per view per chunk of a scan: relations are
   resolved by name, column readers are specialised to the live [Column.data]
   representation ([float array]/[int array] accessors, no variant
   dispatch per row), key extractors are compiled, filters are compiled to
   position-resolved closures, and each slot becomes one kernel closure
   with its payload offset and child payload indexes pre-resolved and its
   term product unrolled for small arities.

   Results are deterministic to the bit because float operations happen
   in a fixed order: term products are left-associated starting from 1.0,
   scalar children multiply in child order after the terms and grouped
   children's values after those in reverse child order, slots accumulate
   in slot-array order, rows accumulate in scan order and are inserted into
   the view before any filter is tested, and parallel scans use the fixed
   [Pool.parallel_chunks] decomposition and merge order. A row adds at most
   once into each key of a grouped partial — the group variables a slot's
   own columns and its children contribute are disjoint — so the order in
   which one row visits its keys never reaches the bits. *)

open Relational
module Spec = Aggregates.Spec

(* ---------- grouped partial aggregates ---------- *)

(* Float sums keyed by [Keypack] keys packed over a slot's group variables
   in name order, kept in insertion order. Most view rows hold one group,
   so the arrays start at one entry and lookup scans the keys linearly; a
   hash index from key to position is built only past [linear_max]
   entries. Results are sorted once, at extraction. *)
module Grouped = struct
  type t = {
    mutable keys : Keypack.key array;
    mutable vals : float array;
    mutable len : int;
    mutable index : int Keypack.Hybrid.t option;
  }

  let linear_max = 16
  let create () = { keys = [||]; vals = [||]; len = 0; index = None }

  let rec scan t k i =
    if i = t.len then -1
    else if Keypack.key_equal (Array.unsafe_get t.keys i) k then i
    else scan t k (i + 1)

  let find t k =
    match t.index with
    | None -> scan t k 0
    | Some ix -> (
        match Keypack.Hybrid.find_opt ix k with Some i -> i | None -> -1)

  let push t k v =
    let n = t.len in
    if n = Array.length t.keys then begin
      let ks = Array.make (Stdlib.max 1 (2 * n)) k in
      let vs = Array.make (Array.length ks) 0.0 in
      Array.blit t.keys 0 ks 0 n;
      Array.blit t.vals 0 vs 0 n;
      t.keys <- ks;
      t.vals <- vs
    end;
    t.keys.(n) <- k;
    t.vals.(n) <- v;
    t.len <- n + 1;
    match t.index with
    | Some ix -> Keypack.Hybrid.add ix k n
    | None when t.len > linear_max ->
        let ix = Keypack.Hybrid.create (2 * t.len) in
        for i = 0 to t.len - 1 do
          Keypack.Hybrid.add ix t.keys.(i) i
        done;
        t.index <- Some ix
    | None -> ()

  (* A key's first addition stores [v] itself, not [0.0 +. v]. *)
  let[@inline] bump t k v =
    let i = find t k in
    if i >= 0 then t.vals.(i) <- t.vals.(i) +. v else push t k v

  let add_into a b =
    for j = 0 to b.len - 1 do
      bump a b.keys.(j) b.vals.(j)
    done

  (* Sorted in [Faggregate.Grouped.Key.compare] order: every key assigns
     the same names in the same order, so that order is the lexicographic
     [Value.compare] order of the unpacked values. *)
  let bindings (vars : string array) t : Spec.result =
    let k = Array.length vars in
    let entries =
      Array.init t.len (fun i -> (Keypack.key_tuple k t.keys.(i), t.vals.(i)))
    in
    Array.sort (fun (a, _) (b, _) -> Tuple.compare a b) entries;
    Array.to_list
      (Array.map
         (fun (values, v) ->
           (Array.to_list (Array.map2 (fun n x -> (n, x)) vars values), v))
         entries)
end

type row = { sc : float array; gr : Grouped.t array }
type view = row Keypack.Hybrid.t

(* Where a slot's partial lives in a view row — [idx] into [row.sc] or
   [row.gr] — and, for a grouped slot, the group variables its keys pack,
   in name order. *)
type layout = { idx : int; scalar : bool; vars : string array }

(* Specialization fallbacks: term columns that are boxed or whose
   representation drifted since lowering. *)
let c_fallbacks = Obs.counter "lmfao.compile.fallbacks"
let c_tuples_scanned = Obs.counter "lmfao.tuples_scanned"
let c_roots = Obs.counter "lmfao.roots"

let merge_rows (a : row) (b : row) =
  Array.iteri (fun i v -> a.sc.(i) <- a.sc.(i) +. v) b.sc;
  Array.iteri (fun i g -> Grouped.add_into a.gr.(i) g) b.gr

let merge_views (a : view) (b : view) : view =
  Keypack.Hybrid.iter
    (fun key row_b ->
      match Keypack.Hybrid.find_opt a key with
      | Some row_a -> merge_rows row_a row_b
      | None -> Keypack.Hybrid.add a key row_b)
    b;
  a

(* ---------- monomorphic column readers ---------- *)

(* Reader specialised to the live representation. Indexes stay within the
   relation's cardinality, which the column capacity bounds, so the
   unsafe reads are in range. Semantics are [Column.float_at]. *)
let reader (cols : Column.t array) pos : int -> float =
  match Column.data cols.(pos) with
  | Column.Floats a -> fun i -> Array.unsafe_get a i
  | Column.Ints a -> fun i -> float_of_int (Array.unsafe_get a i)
  | Column.Boxed a -> fun i -> Value.to_float (Array.unsafe_get a i)

(* ---------- filter compilation ---------- *)

(* Mirror of [Predicate.compile_cols], driven by the IR's positions. The
   generic arms preserve [Value.compare]/[Value.equal] semantics for
   boxed or cross-typed columns. *)
let rec compile_filter (cols : Column.t array) (f : Ir.filter) : int -> bool =
  match f with
  | Ir.FTrue -> fun _ -> true
  | Ir.FGe (p, c) -> (
      let cl = cols.(p) in
      match (Column.data cl, c) with
      | Column.Ints arr, Value.Int x -> fun i -> arr.(i) >= x
      | Column.Floats arr, Value.Float x -> fun i -> arr.(i) >= x
      | _ -> fun i -> Value.compare (Column.get cl i) c >= 0)
  | Ir.FLt (p, c) -> (
      let cl = cols.(p) in
      match (Column.data cl, c) with
      | Column.Ints arr, Value.Int x -> fun i -> arr.(i) < x
      | Column.Floats arr, Value.Float x -> fun i -> arr.(i) < x
      | _ -> fun i -> Value.compare (Column.get cl i) c < 0)
  | Ir.FEq (p, c) -> (
      let cl = cols.(p) in
      match (Column.data cl, c) with
      | Column.Ints arr, Value.Int x -> fun i -> arr.(i) = x
      | Column.Floats arr, Value.Float x -> fun i -> arr.(i) = x
      | _ -> fun i -> Value.equal (Column.get cl i) c)
  | Ir.FIn (p, cs) -> (
      let cl = cols.(p) in
      match Column.data cl with
      | Column.Ints arr
        when List.for_all (function Value.Int _ -> true | _ -> false) cs ->
          let xs = List.map Value.to_int cs in
          fun i -> List.mem arr.(i) xs
      | _ -> fun i -> List.exists (Value.equal (Column.get cl i)) cs)
  | Ir.FNot f ->
      let g = compile_filter cols f in
      fun i -> not (g i)
  | Ir.FAnd (f, g) ->
      let cf = compile_filter cols f and cg = compile_filter cols g in
      fun i -> cf i && cg i
  | Ir.FOr (f, g) ->
      let cf = compile_filter cols f and cg = compile_filter cols g in
      fun i -> cf i || cg i
  | Ir.FAdditive (ts, c) ->
      let compiled = List.map (fun (p, w) -> (cols.(p), w)) ts in
      fun i ->
        List.fold_left
          (fun acc (cl, w) -> acc +. (w *. Column.float_at cl i))
          0.0 compiled
        > c

let compile_filters cols = function
  | [] -> fun _ -> true
  | [ f ] -> compile_filter cols f
  | fs ->
      let compiled = List.map (compile_filter cols) fs in
      fun i -> List.for_all (fun f -> f i) compiled

(* ---------- term products ---------- *)

(* Left-associated product starting from 1.0, unrolled for the common
   arities: [local := 1.0; local := !local *. x; ...]. *)
let build_product (terms : ((int -> float) * int) array) : int -> float =
  match terms with
  | [||] -> fun _ -> 1.0
  | [| (r, 1) |] -> fun i -> 1.0 *. r i
  | [| (r, 2) |] ->
      fun i ->
        let x = r i in
        1.0 *. x *. x
  | [| (r1, 1); (r2, 1) |] -> fun i -> 1.0 *. r1 i *. r2 i
  | terms ->
      fun i ->
        let local = ref 1.0 in
        Array.iter
          (fun (r, power) ->
            let x = r i in
            for _ = 1 to power do
              local := !local *. x
            done)
          terms;
        !local

(* ---------- grouped accumulation ---------- *)

(* Where each field of a merged key comes from: a local group column, or
   field [f] of the key chosen from grouped part [g]. *)
type source = Local of int | Part of int * int

(* The key of one combination: row [i]'s local group values and the key
   chosen from each grouped part, merged in name order. It packs without
   boxing when every field fits; otherwise [Keypack.key_of_tuple] builds
   the same key any other producer of these values builds. *)
let merger (cols : Column.t array) (sources : source array)
    (arities : int array) : int -> Keypack.key array -> Keypack.key =
  let k = Array.length sources in
  let w = Keypack.field_width k in
  let bound = 1 lsl w in
  let local_ints =
    Array.map
      (function
        | Local pos -> (
            match Column.data cols.(pos) with
            | Column.Ints a -> Some a
            | _ -> None)
        | Part _ -> None)
      sources
  in
  let field g f p =
    let ka = arities.(g) in
    if ka = 1 then p
    else
      let wa = Keypack.field_width ka in
      (p asr ((ka - 1 - f) * wa)) land ((1 lsl wa) - 1)
  in
  let positions = Array.init k Fun.id in
  let boxed i chosen =
    Keypack.key_of_tuple positions
      (Array.map
         (function
           | Local pos -> Column.get cols.(pos) i
           | Part (g, f) -> (Keypack.key_tuple arities.(g) chosen.(g)).(f))
         sources)
  in
  fun i chosen ->
    (* fields are non-negative, so -1 flags "does not pack" *)
    let acc = ref 0 and j = ref 0 in
    while !acc >= 0 && !j < k do
      let x =
        match (sources.(!j), local_ints.(!j)) with
        | Local _, Some a -> a.(i)
        | Local _, None -> -1
        | Part (g, f), _ -> (
            match chosen.(g) with Keypack.P p -> field g f p | Keypack.B _ -> -1)
      in
      acc := if x >= 0 && x < bound then (!acc lsl w) lor x else -1;
      incr j
    done;
    if !acc >= 0 then Keypack.P !acc else boxed i chosen

(* Bump every combination of one key per part into [acc], multiplying the
   running product [v] by the parts' values in array order. *)
let rec bump_product acc merge i (parts : Grouped.t array) chosen g v =
  if g = Array.length parts then Grouped.bump acc (merge i chosen) v
  else begin
    let p = parts.(g) in
    for j = 0 to p.Grouped.len - 1 do
      chosen.(g) <- p.Grouped.keys.(j);
      bump_product acc merge i parts chosen (g + 1) (v *. p.Grouped.vals.(j))
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
let grouped_kernel rel cols (s : Ir.slot) (l : layout) (refs : layout array)
    (product : int -> float) : int -> row array -> row -> unit =
  let children = List.init (Array.length refs) Fun.id in
  let scalars =
    Array.of_list
      (List.filter_map
         (fun c -> if refs.(c).scalar then Some (c, refs.(c).idx) else None)
         children)
  in
  let parts =
    Array.of_list (List.rev (List.filter (fun c -> not refs.(c).scalar) children))
  in
  let coeff i (child_rows : row array) =
    let v = ref (product i) in
    for n = 0 to Array.length scalars - 1 do
      let c, idx = scalars.(n) in
      v := !v *. child_rows.(c).sc.(idx)
    done;
    !v
  in
  let locals = List.sort compare (Array.to_list s.Ir.s_groups) in
  match (parts, locals) with
  | [||], _ ->
      let key = Relation.extractor rel (Array.of_list (List.map snd locals)) in
      fun i child_rows acc ->
        Grouped.bump acc.gr.(l.idx) (key i) (coeff i child_rows)
  | [| c |], [] ->
      let idx = refs.(c).idx in
      fun i child_rows acc ->
        let v = coeff i child_rows in
        let part = child_rows.(c).gr.(idx) and a = acc.gr.(l.idx) in
        for j = 0 to part.Grouped.len - 1 do
          Grouped.bump a part.Grouped.keys.(j) (v *. part.Grouped.vals.(j))
        done
  | _ ->
      let source var =
        match List.assoc_opt var locals with
        | Some pos -> Local pos
        | None ->
            let rec find g f =
              let vars = refs.(parts.(g)).vars in
              if f = Array.length vars then find (g + 1) 0
              else if String.equal vars.(f) var then Part (g, f)
              else find g (f + 1)
            in
            find 0 0
      in
      let merge =
        merger cols (Array.map source l.vars)
          (Array.map (fun c -> Array.length refs.(c).vars) parts)
      in
      let chosen = Array.make (Array.length parts) (Keypack.P 0) in
      let current = Array.make (Array.length parts) (Grouped.create ()) in
      fun i child_rows acc ->
        for g = 0 to Array.length parts - 1 do
          let c = parts.(g) in
          current.(g) <- child_rows.(c).gr.(refs.(c).idx)
        done;
        bump_product acc.gr.(l.idx) merge i current chosen 0 (coeff i child_rows)

(* ---------- view binding ---------- *)

(* Payload layout: scalars and grouped partials counted separately in slot
   order; a grouped slot's variables are its own group columns and its
   children's variables, in name order. *)
let layouts_of (view : Ir.view) (child_layouts : layout array array) =
  let ns = ref 0 and ng = ref 0 in
  Array.map
    (fun (s : Ir.slot) ->
      if s.Ir.s_scalar then begin
        incr ns;
        { idx = !ns - 1; scalar = true; vars = [||] }
      end
      else begin
        incr ng;
        let vars =
          Array.concat
            (Array.map fst s.Ir.s_groups
            :: Array.to_list
                 (Array.mapi
                    (fun c cs -> child_layouts.(c).(cs).vars)
                    s.Ir.s_children))
        in
        Array.sort compare vars;
        { idx = !ng - 1; scalar = false; vars }
      end)
    view.Ir.v_slots

(* Count specialization fallbacks for one view binding: term columns whose
   live representation is boxed or has drifted from what the plan was
   specialised for. *)
let count_fallbacks (view : Ir.view) cols =
  Array.iter
    (fun (s : Ir.slot) ->
      Array.iter
        (fun (t : Ir.term) ->
          let live = Ir.rep_of cols t.Ir.t_pos in
          if live = Ir.Rboxed || live <> t.Ir.t_rep then Obs.incr c_fallbacks)
        s.Ir.s_terms)
    view.Ir.v_slots

(* A child row that did not match: compared physically, never read. *)
let no_row = { sc = [||]; gr = [||] }

(* Bind one view to a chunk's live columns: [feed i] adds row [i] into
   [acc] when every child of the view matched, reading the child rows the
   scan probed into [found] through [wire] (child -> probe index). The
   row's key is inserted BEFORE any filter runs: an all-filters-false row
   still creates a zero row. *)
let bind_view rel cols (view : Ir.view) (layout : layout array)
    (child_refs : layout array array) (wire : int array) (found : row array)
    (acc : view) : int -> unit =
  let n_children = Array.length wire in
  let n_slots = Array.length view.Ir.v_slots in
  let n_scalar = Array.fold_left (fun n l -> if l.scalar then n + 1 else n) 0 layout in
  let n_grouped = n_slots - n_scalar in
  let own_key = Relation.extractor rel view.Ir.v_key in
  let nh = Array.length view.Ir.v_hoisted in
  let buf = Array.make (max nh 1) 0.0 in
  let hload = Array.map (fun pos -> reader cols pos) view.Ir.v_hoisted in
  let slot_reader pos =
    (* hoisted positions read the per-row buffer *)
    let rec idx k =
      if k >= nh then -1
      else if view.Ir.v_hoisted.(k) = pos then k
      else idx (k + 1)
    in
    match idx 0 with
    | -1 -> reader cols pos
    | k -> fun _ -> Array.unsafe_get buf k
  in
  let scan_ok = compile_filters cols view.Ir.v_scan_filters in
  let kernels =
    Array.mapi
      (fun s_idx (s : Ir.slot) ->
        let filt = compile_filters cols s.Ir.s_filters in
        let no_filter = s.Ir.s_filters = [] in
        let product =
          build_product
            (Array.map
               (fun (t : Ir.term) -> (slot_reader t.Ir.t_pos, t.Ir.t_power))
               s.Ir.s_terms)
        in
        let l = layout.(s_idx) in
        let refs = child_refs.(s_idx) in
        let p_idx = l.idx in
        if l.scalar then (
          match Array.length refs with
          | 0 when no_filter ->
              fun i _child_rows (acc : row) ->
                acc.sc.(p_idx) <- acc.sc.(p_idx) +. product i
          | 0 ->
              fun i _child_rows (acc : row) ->
                if filt i then acc.sc.(p_idx) <- acc.sc.(p_idx) +. product i
          | nrefs ->
              fun i child_rows (acc : row) ->
                if filt i then begin
                  let local = ref (product i) in
                  for c = 0 to nrefs - 1 do
                    let idx = (Array.unsafe_get refs c).idx in
                    local := !local *. (Array.unsafe_get child_rows c).sc.(idx)
                  done;
                  acc.sc.(p_idx) <- acc.sc.(p_idx) +. !local
                end)
        else
          let kernel = grouped_kernel rel cols s l refs product in
          if no_filter then kernel
          else fun i child_rows acc -> if filt i then kernel i child_rows acc)
      view.Ir.v_slots
  in
  let child_rows = Array.make n_children no_row in
  let rec matched c =
    c = n_children
    ||
    let r = Array.unsafe_get found (Array.unsafe_get wire c) in
    r != no_row
    && begin
         Array.unsafe_set child_rows c r;
         matched (c + 1)
       end
  in
  fun i ->
    if matched 0 then begin
      let key = own_key i in
      let acc_row =
        match Keypack.Hybrid.find_opt acc key with
        | Some r -> r
        | None ->
            let r =
              {
                sc = Array.make n_scalar 0.0;
                gr = Array.init n_grouped (fun _ -> Grouped.create ());
              }
            in
            Keypack.Hybrid.add acc key r;
            r
      in
      if scan_ok i then begin
        for k = 0 to nh - 1 do
          Array.unsafe_set buf k ((Array.unsafe_get hload k) i)
        done;
        for s = 0 to n_slots - 1 do
          (Array.unsafe_get kernels s) i child_rows acc_row
        done
      end
    end

(* ---------- view groups ---------- *)

(* One scan of [sc.sc_rel] computing every view in [sc.sc_views]. Each
   incoming view (a child of some output) is probed once per row, in
   first-use order; a row feeds every output whose own children all
   matched, so a row with no partner in one incoming view still counts
   toward the output that does not read it. A miss in an incoming view
   that every output reads ends the row early. *)
let scan_group ~parallel ~chunk_threshold db (g : Ir.grouped)
    (layouts : layout array array) (live : view option array) (sc : Ir.scan) :
    view array =
  let outs = Array.map (fun v -> g.Ir.g_views.(v)) sc.Ir.sc_views in
  (* the incoming views, each once in first-use order, with the key
     columns that probe them (every output reads a child by its edge) *)
  let incoming =
    Array.fold_left
      (fun acc (o : Ir.view) ->
        Array.fold_left
          (fun acc ck -> if List.mem_assoc (fst ck) acc then acc else acc @ [ ck ])
          acc
          (Array.combine o.Ir.v_children o.Ir.v_child_keys))
      [] outs
    |> Array.of_list
  in
  let n_inc = Array.length incoming in
  let probe_index c =
    let rec go j = if fst incoming.(j) = c then j else go (j + 1) in
    go 0
  in
  let wires = Array.map (fun (o : Ir.view) -> Array.map probe_index o.Ir.v_children) outs in
  let required =
    Array.init n_inc (fun j -> Array.for_all (fun w -> Array.mem j w) wires)
  in
  let inc_views = Array.map (fun (c, _) -> Option.get live.(c)) incoming in
  let out_layouts = Array.map (fun v -> layouts.(v)) sc.Ir.sc_views in
  (* per output slot: the layout of each child slot its kernel reads *)
  let child_refs =
    Array.map
      (fun (o : Ir.view) ->
        Array.map
          (fun (s : Ir.slot) ->
            Array.mapi (fun c cs -> layouts.(o.Ir.v_children.(c)).(cs)) s.Ir.s_children)
          o.Ir.v_slots)
      outs
  in
  let rel = Database.relation db sc.Ir.sc_rel in
  Array.iter (fun o -> count_fallbacks o (Relation.columns rel)) outs;
  (* [scan_into] is invoked once per chunk — a parallel slice of the
     resident relation, or one streamed page chunk. Everything
     representation-dependent (column readers, key extractors, filters,
     kernels, hoist buffers, scratch arrays) is specialised inside against
     THIS relation's live columns, so concurrent chunks never share
     mutable state and streamed chunks bind to their own pages.
     Construction is O(slots), amortised over a chunk of rows. *)
  let scan_into rel (accs : view array) lo len =
    Obs.add c_tuples_scanned len;
    ignore (Relation.scan rel);
    let cols = Relation.columns rel in
    let probe_key = Array.map (fun (_, key) -> Relation.extractor rel key) incoming in
    let found = Array.make n_inc no_row in
    let feeds =
      Array.mapi
        (fun o view ->
          bind_view rel cols view out_layouts.(o) child_refs.(o) wires.(o) found
            accs.(o))
        outs
    in
    let n_out = Array.length feeds in
    let rec probe i j =
      j = n_inc
      ||
      match Keypack.Hybrid.find_opt inc_views.(j) (probe_key.(j) i) with
      | Some r ->
          found.(j) <- r;
          probe i (j + 1)
      | None ->
          found.(j) <- no_row;
          (not required.(j)) && probe i (j + 1)
    in
    for i = lo to lo + len - 1 do
      if probe i 0 then
        for o = 0 to n_out - 1 do
          (Array.unsafe_get feeds o) i
        done
    done
  in
  let fresh () : view array = Array.map (fun _ -> Keypack.Hybrid.create 256) outs in
  match Database.stream db sc.Ir.sc_rel with
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
      if parallel && n > chunk_threshold then
        Util.Pool.parallel_chunks n
          (fun lo len ->
            let accs = fresh () in
            scan_into rel accs lo len;
            accs)
          ~combine:(fun acc v ->
            match acc with
            | None -> Some v
            | Some a -> Some (Array.map2 merge_views a v))
          ~zero:None
        |> Option.fold ~none:(fresh ()) ~some:Fun.id
      else begin
        let accs = fresh () in
        scan_into rel accs 0 n;
        accs
      end

(* ---------- batch execution ---------- *)

let run ~parallel ~chunk_threshold db (g : Ir.grouped) :
    (string * Spec.result) list =
  let nv = Array.length g.Ir.g_views in
  (* children come first, so one pass lays every view out *)
  let layouts = Array.make nv [||] in
  Array.iteri
    (fun v (view : Ir.view) ->
      layouts.(v) <- layouts_of view (Array.map (fun c -> layouts.(c)) view.Ir.v_children))
    g.Ir.g_views;
  let is_root = Array.make nv false in
  Array.iter (fun (_, v, _) -> is_root.(v) <- true) g.Ir.g_outputs;
  (* the last scan that reads each view; it is dropped after that scan *)
  let last_read = Array.make nv (-1) in
  Array.iteri
    (fun s (sc : Ir.scan) ->
      Array.iter
        (fun v -> Array.iter (fun c -> last_read.(c) <- s) g.Ir.g_views.(v).Ir.v_children)
        sc.Ir.sc_views)
    g.Ir.g_scans;
  let live = Array.make nv None in
  Array.iteri
    (fun s (sc : Ir.scan) ->
      let computed =
        Obs.with_span ("lmfao.view:" ^ sc.Ir.sc_rel) (fun () ->
            scan_group ~parallel ~chunk_threshold db g layouts live sc)
      in
      Array.iteri
        (fun k v ->
          if is_root.(v) then Obs.incr c_roots;
          live.(v) <- Some computed.(k))
        sc.Ir.sc_views;
      Array.iteri (fun v last -> if last = s then live.(v) <- None) last_read)
    g.Ir.g_scans;
  Array.to_list
    (Array.map
       (fun (id, v, slot) ->
         let l = layouts.(v).(slot) in
         (* a root view has the single empty key, which packs as [P 0] *)
         let result =
           match Keypack.Hybrid.find_opt (Option.get live.(v)) (Keypack.P 0) with
           | None -> if l.scalar then [ ([], 0.0) ] else []
           | Some r ->
               if l.scalar then [ ([], r.sc.(l.idx)) ]
               else Grouped.bindings l.vars r.gr.(l.idx)
         in
         (id, result))
       g.Ir.g_outputs)
