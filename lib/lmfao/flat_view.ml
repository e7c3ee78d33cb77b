(* Flat storage for the directed views of [Exec]: a view's rows, their
   scalar partials and their grouped partials live in a few int and float
   arrays, with no record, list cell or boxed key per row.

   - Rows. Each key of the view maps to a dense row id (0, 1, 2, ... in
     insertion order), and row r's key in its int form ([Keypack]) is
     recorded at [keys.(r)]. While keys arrive strictly increasing the
     view is in key order and has no index: a key is found by binary
     search, and a scan in the same order walks the keys with {!seek}.
     The first key out of that order, or the first that does not pack,
     builds a [Keypack.Index] from the recorded keys, and the view keeps
     it from then on.
   - Scalar partials. Row r's [scalars] floats are contiguous in a float
     block of at most [block_size] floats, allocated when its first row is
     added and never moved: block [r lsr shift], from offset
     [(r land (1 lsl shift - 1)) * scalars].
   - Grouped partials, by family: the grouped slots whose keys are always
     the same ([Plan.view]'s [v_families]) share one chain per row. Cell
     [r * families + f] (row r, family f) heads a chain of entries. An
     entry holds one value per member of its family, contiguous inside one
     value block, and is named by the offset of its first value: the
     links block beside each value block holds, at the entry's offset, its
     key's int form and the next entry of its chain (-1 ends it). A family
     of width 1 thus spends two ints and one float per entry; a wider one
     leaves the link pairs of its other members unused. Cells, links and
     values live in blocks, so nothing moves as a view grows. A chain is
     scanned linearly while its cell holds at most [linear_max] entries;
     the entry that takes it past that promotes the cell to a view-wide
     open-addressing index over (cell, key). Entries with boxed keys are
     found through a (cell, tuple) hash table, never in a scan.
   - A new entry's values start at [-0.0], so a member's first addition
     stores the operand bit for bit ([-0.0 +. v = v] for every v, zeros
     and NaNs included). Scalars start at [+0.0]. *)

open Relational

let block_bits = 9
let block_size = 1 lsl block_bits
let pair_bits = block_bits - 1
let linear_max = 16

module Ctbl = Hashtbl.Make (struct
  type t = int * Tuple.t

  let equal (c, a) (d, b) = c = d && Tuple.equal a b
  let hash (c, a) = (c * 31) + Tuple.hash a
end)

(* Entries whose keys do not pack: by (cell, key), and each one's key. *)
type boxed = { b_entries : int Ctbl.t; b_keys : (int, Tuple.t) Hashtbl.t }

type t = {
  scalars : int;
  families : int;
  widths : int array;
  width : int;
  shift : int;
  mutable blocks : float array array;
  mutable cells : int array array;
  mutable links : int array array;
  mutable values : float array array;
  mutable top : int;
  mutable index : Keypack.Index.t option;
  mutable keys : int array;
  mutable rows : int;
  mutable promoted : int array;
  mutable n_promoted : int;
  boxed : boxed;
}

(* The largest [s <= block_bits] with [(1 lsl s) * scalars <= block_size]:
   a row never straddles two blocks, and a row wider than a block gets a
   block to itself. *)
let rows_shift scalars =
  let rec go s =
    if s < block_bits && (1 lsl (s + 1)) * scalars <= block_size then go (s + 1)
    else s
  in
  go 0

let create ~scalars ~widths =
  if Array.exists (fun w -> w < 1 || w > block_size) widths then
    invalid_arg "Flat_view.create: a family of 1 to block_size members";
  {
    scalars;
    families = Array.length widths;
    widths = Array.copy widths;
    width =
      (if Array.length widths > 0 && Array.for_all (( = ) widths.(0)) widths then widths.(0)
       else 0);
    shift = rows_shift scalars;
    blocks = [||];
    cells = [||];
    links = [||];
    values = [||];
    top = 0;
    index = None;
    keys = Array.make 16 0;
    rows = 0;
    promoted = [||];
    n_promoted = 0;
    boxed = { b_entries = Ctbl.create 1; b_keys = Hashtbl.create 1 };
  }

(* ---------- block arithmetic ---------- *)

let pair_mask = (1 lsl pair_bits) - 1
let[@inline] pair_block (blocks : int array array) i = Array.unsafe_get blocks (i lsr pair_bits)
let[@inline] pair_at i = (i land pair_mask) lsl 1

(* Cell [c]'s first entry and entry count; entry [e]'s key and next
   entry. *)
let[@inline] head t c = Array.unsafe_get (pair_block t.cells c) (pair_at c)
let[@inline] count t c = Array.unsafe_get (pair_block t.cells c) (pair_at c + 1)
let[@inline] in_block o = o land (block_size - 1)
let[@inline] link_block t e = Array.unsafe_get t.links (e lsr block_bits)
let[@inline] key_of t e = Array.unsafe_get (link_block t e) (2 * in_block e)
let[@inline] next_of t e = Array.unsafe_get (link_block t e) ((2 * in_block e) + 1)

(* The value block holding entry (or offset) [o]. *)
let[@inline] value_block t o = Array.unsafe_get t.values (o lsr block_bits)

(* Row [r]'s scalar block, and the offset of its first scalar there. *)
let[@inline] block_of t r = t.blocks.(r lsr t.shift)
let[@inline] base_of t r = (r land ((1 lsl t.shift) - 1)) * t.scalars

(* ---------- rows ---------- *)

let in_order t = match t.index with None -> true | Some _ -> false

(* The first row from [from] whose key is at least [k] ([t.rows] when
   none), in an in-order view: gallop forward, then bisect. *)
let seek t from k =
  let keys = t.keys and n = t.rows in
  let lo = ref from and step = ref 1 in
  while !lo + !step < n && Array.unsafe_get keys (!lo + !step) < k do
    lo := !lo + !step;
    step := 2 * !step
  done;
  (* keys.(!lo) < k unless !lo = from; the answer is in (!lo, !lo + step] *)
  let lo = ref (if !lo < n && Array.unsafe_get keys !lo >= k then !lo - 1 else !lo)
  and hi = ref (Stdlib.min n (!lo + !step)) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get keys mid < k then lo := mid else hi := mid
  done;
  !hi

let find t k =
  match t.index with
  | Some ix -> Keypack.Index.find ix k
  | None ->
      let n = t.rows in
      if n = 0 || k > Array.unsafe_get t.keys (n - 1) then -1
      else
        let r = seek t 0 k in
        if Array.unsafe_get t.keys r = k then r else -1

let find_boxed t key =
  match t.index with Some ix -> Keypack.Index.find_boxed ix key | None -> -1

(* [blocks] with room for block [b]. *)
let room (blocks : 'a array array) b =
  if b < Array.length blocks then blocks
  else begin
    let grown = Array.make (Stdlib.max 4 (2 * Array.length blocks)) [||] in
    Array.blit blocks 0 grown 0 (Array.length blocks);
    grown
  end

(* Block [b] of [blocks] of [len] cells, set to [x]: the block kept from
   before a {!reset}, or a new one. *)
let fresh_block blocks b len (x : 'a) =
  let blocks = room blocks b in
  if Array.length blocks.(b) = len then Array.fill blocks.(b) 0 len x
  else blocks.(b) <- Array.make len x;
  blocks

(* A new row's storage: its scalar block when it is the block's first
   row, and every cell block its cells open. *)
let add_row t =
  let r = t.rows in
  t.rows <- r + 1;
  if t.scalars > 0 && base_of t r = 0 then
    t.blocks <- fresh_block t.blocks (r lsr t.shift) ((1 lsl t.shift) * t.scalars) 0.0;
  if t.families > 0 then
    for b = ((r * t.families) + pair_mask) lsr pair_bits
        to (((r + 1) * t.families) - 1) lsr pair_bits do
      t.cells <- fresh_block t.cells b block_size 0;
      let cb = t.cells.(b) in
      for c = 0 to pair_mask do
        cb.(2 * c) <- -1
      done
    done;
  r

(* A new row with recorded key [k]. *)
let new_row t k =
  let r = add_row t in
  if r = Array.length t.keys then begin
    let grown = Array.make (2 * r) 0 in
    Array.blit t.keys 0 grown 0 r;
    t.keys <- grown
  end;
  t.keys.(r) <- k;
  r

(* The view's index, built from the recorded keys when it is in order: the
   view leaves key order. *)
let index t =
  match t.index with
  | Some ix -> ix
  | None ->
      let ix = Keypack.Index.of_keys t.keys t.rows in
      t.index <- Some ix;
      ix

let ensure_index t = ignore (index t)

let rec row t k =
  match t.index with
  | Some ix ->
      let r = Keypack.Index.add ix k t.rows in
      if r >= 0 then r else new_row t k
  | None ->
      (* in order: a repeat of the last key, a larger key, or the first
         key out of order *)
      let n = t.rows in
      if n > 0 && Array.unsafe_get t.keys (n - 1) = k then n - 1
      else if n = 0 || Array.unsafe_get t.keys (n - 1) < k then begin
        Obs.incr Keypack.c_packed;
        new_row t k
      end
      else begin
        ensure_index t;
        row t k
      end

let row_boxed t key =
  let ix = index t in
  let r = Keypack.Index.find_boxed ix key in
  if r >= 0 then r
  else begin
    let r = new_row t Keypack.nopack in
    ignore (Keypack.Index.replace_boxed ix key r);
    r
  end

(* ---------- grouped entries ---------- *)

(* A new entry of [cell]'s family, its values at [-0.0] at the top of the
   current value block, or at the start of a new one when they do not fit
   there. *)
let new_entry t cell k =
  let w = if t.width > 0 then t.width else t.widths.(cell mod t.families) in
  let e = if in_block t.top + w > block_size then (t.top lor (block_size - 1)) + 1 else t.top in
  if in_block e = 0 then begin
    let b = e lsr block_bits in
    t.values <- fresh_block t.values b block_size (-0.0);
    t.links <- room t.links b;
    if Array.length t.links.(b) = 0 then t.links.(b) <- Array.make (2 * block_size) 0
  end;
  t.top <- e + w;
  let cb = pair_block t.cells cell and co = pair_at cell in
  let lb = link_block t e and lo = 2 * in_block e in
  lb.(lo) <- k;
  lb.(lo + 1) <- cb.(co);
  cb.(co) <- e;
  cb.(co + 1) <- cb.(co + 1) + 1;
  e

(* The slot of [p] holding (cell, k), or the free slot where it belongs. *)
let pslot (p : int array) cell k =
  let mask = (Array.length p / 3) - 1 in
  let s = ref (Keypack.hash (k + Keypack.hash cell) land mask) in
  while
    Array.unsafe_get p ((3 * !s) + 2) >= 0
    && (Array.unsafe_get p (3 * !s) <> cell || Array.unsafe_get p ((3 * !s) + 1) <> k)
  do
    s := (!s + 1) land mask
  done;
  !s

let rec index_entry t cell k e =
  if 2 * (t.n_promoted + 1) > Array.length t.promoted / 3 then begin
    let old = t.promoted in
    t.promoted <- Array.make (3 * Stdlib.max 64 (2 * (Array.length old / 3))) (-1);
    t.n_promoted <- 0;
    for s = 0 to (Array.length old / 3) - 1 do
      let e' = old.((3 * s) + 2) in
      if e' >= 0 then index_entry t old.(3 * s) old.((3 * s) + 1) e'
    done
  end;
  let p = t.promoted in
  let s = pslot p cell k in
  p.(3 * s) <- cell;
  p.((3 * s) + 1) <- k;
  p.((3 * s) + 2) <- e;
  t.n_promoted <- t.n_promoted + 1

(* Index every packed entry of [cell]'s chain, the one just added
   included. The index exists from here on, even when every entry so far
   is boxed. *)
let promote t cell =
  if Array.length t.promoted = 0 then t.promoted <- Array.make (3 * 64) (-1);
  let e = ref (head t cell) in
  while !e >= 0 do
    let k = key_of t !e in
    if k <> Keypack.nopack then index_entry t cell k !e;
    e := next_of t !e
  done

let entry t cell k =
  let n = count t cell in
  if n > linear_max then begin
    let e = t.promoted.((3 * pslot t.promoted cell k) + 2) in
    if e >= 0 then e
    else begin
      let e = new_entry t cell k in
      index_entry t cell k e;
      e
    end
  end
  else begin
    let e = ref (head t cell) in
    while !e >= 0 && key_of t !e <> k do
      e := next_of t !e
    done;
    if !e >= 0 then !e
    else begin
      let e = new_entry t cell k in
      if n = linear_max then promote t cell;
      e
    end
  end

let entry_boxed t cell key =
  match Ctbl.find_opt t.boxed.b_entries (cell, key) with
  | Some e -> e
  | None ->
      let n = count t cell in
      let e = new_entry t cell Keypack.nopack in
      Ctbl.add t.boxed.b_entries (cell, key) e;
      Hashtbl.add t.boxed.b_keys e key;
      if n = linear_max then promote t cell;
      e

let boxed_key t e = Hashtbl.find t.boxed.b_keys e

(* Empty the view, keeping its blocks, key array and entry index for the
   rows and entries that follow: a block is set back to its initial
   values when a row or entry first reaches it again. Links need no reset,
   since an entry writes its key and next before anything reads them. *)
let reset t =
  t.top <- 0;
  t.rows <- 0;
  t.index <- None;
  if t.n_promoted > 0 then begin
    Array.fill t.promoted 0 (Array.length t.promoted) (-1);
    t.n_promoted <- 0
  end;
  if Ctbl.length t.boxed.b_entries > 0 then Ctbl.reset t.boxed.b_entries;
  if Hashtbl.length t.boxed.b_keys > 0 then Hashtbl.reset t.boxed.b_keys

(* ---------- merging and reading out ---------- *)

(* Add source row [sr] into target row [tr]; a fresh target row takes the
   source's scalars as they are, and a key new to a target cell takes its
   values as they are ([-0.0 +. v = v]). *)
let merge_row into src sr tr ~fresh =
  let ns = src.scalars in
  if ns > 0 then begin
    let sb = block_of src sr and so = base_of src sr in
    let tb = block_of into tr and tof = base_of into tr in
    if fresh then Array.blit sb so tb tof ns
    else
      for j = 0 to ns - 1 do
        tb.(tof + j) <- tb.(tof + j) +. sb.(so + j)
      done
  end;
  for f = 0 to src.families - 1 do
    let tc = (tr * into.families) + f in
    let e = ref (head src ((sr * src.families) + f)) in
    while !e >= 0 do
      let k = key_of src !e in
      let tof = if k <> Keypack.nopack then entry into tc k else entry_boxed into tc (boxed_key src !e) in
      let sb = value_block src !e and so = in_block !e in
      let tb = value_block into tof and tof = in_block tof in
      for m = 0 to src.widths.(f) - 1 do
        tb.(tof + m) <- tb.(tof + m) +. sb.(so + m)
      done;
      e := next_of src !e
    done
  done

let merge into src =
  for sr = 0 to src.rows - 1 do
    let k = src.keys.(sr) in
    if k <> Keypack.nopack then begin
      let tr = find into k in
      if tr >= 0 then merge_row into src sr tr ~fresh:false
      else merge_row into src sr (row into k) ~fresh:true
    end
  done;
  Option.iter
    (Keypack.Index.iter_boxed (fun key sr ->
         let tr = find_boxed into key in
         if tr >= 0 then merge_row into src sr tr ~fresh:false
         else merge_row into src sr (row_boxed into key) ~fresh:true))
    src.index

let scalar t r idx = (block_of t r).(base_of t r + idx)

let cell_bindings t cell ~arity ~member =
  let acc = ref [] and e = ref (head t cell) in
  while !e >= 0 do
    let k = key_of t !e in
    let key = if k <> Keypack.nopack then Keypack.unpack arity k else boxed_key t !e in
    let o = !e + member in
    acc := (key, (value_block t o).(in_block o)) :: !acc;
    e := next_of t !e
  done;
  !acc
