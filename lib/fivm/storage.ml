(* Mutable base-relation storage for IVM: per relation, a Z-multiset of
   tuples plus an index on every join key shared with a join-tree
   neighbour. All three maintenance strategies read this storage; updates
   are applied once per delta, after the strategies have computed their
   view deltas against the pre-update state.

   Layout. A relation keeps its tuples as rows of typed columns
   ([Column.t]: unboxed ints and floats, boxed values only where a cell
   does not fit), in first-insertion order, beside per-row int arrays: the
   multiplicity (0 marks a dead row), an insertion stamp from a
   storage-wide clock, and the row's bucket links. Row [rows] is the
   staging row: [stage] writes an update's tuple there once, every
   strategy reads it there, and a tuple that becomes live keeps it as its
   row.

   - The whole-tuple index is an open-addressing table with linear
     probing. A slot holds its row id and 30 high bits of the row's hash in
     one int, so a probe compares cells (ints by value, floats with
     [Value.equal]'s semantics: [+0.0 = -0.0], NaN equals NaN) only when
     the hash bits match. A dead row leaves its slot marked [dead_slot];
     probes pass over such slots, and a new row takes the first one it met
     or the free slot that ended the probe.
   - Each join-key index is a [Keypack.Index] from a key to the newest row
     of its bucket. A bucket is a doubly linked list over row ids: row r's
     links for an index sit at [links.(r * stride + off)] (older) and the
     int after it (newer). New rows link at the head, so bucket walks run
     newest first: the order downstream float accumulation sees. A bucket
     left empty loses its key.
   - A tuple reaching multiplicity 0 unlinks from its buckets in
     O(#indexes) and leaves a dead row. Dead rows are compacted away in
     order once they outnumber live ones, or when a full node has a
     sixteenth of its rows dead (instead of growing), and the tables are
     rebuilt in place from the live rows: bucket order and row order
     survive, and each compaction is paid for by the deletes that made its
     dead rows.

   [dump] merges the relations' rows by stamp, so replaying it into a fresh
   storage rebuilds every row and bucket in the same order; [iter_live]
   walks live rows in row order, and [columns] finds the runs of live rows
   once and copies each column out with one blit per run, in that order. *)

open Relational

let c_compactions = Obs.counter "fivm.storage_compactions"
let free_slot = -1 (* whole-tuple table slots *)
let dead_slot = -2

type index = {
  neighbour : string;
  positions : int array; (* key positions in this schema *)
  off : int; (* this index's link pair within a row's links *)
  heads : Keypack.Index.t; (* key -> its bucket's newest row *)
}

type node = {
  name : string;
  schema : Schema.t;
  cells : Column.t array;
  indexes : index array;
  neighbours : string list; (* [indexes]' neighbours, same order *)
  stride : int; (* links per row: older and newer per index *)
  mutable rows : int; (* row slots in use, dead ones included *)
  mutable capacity : int;
  mutable mult : int array;
  mutable stamp : int array;
  mutable links : int array;
  mutable live : int;
  mutable table : int array; (* whole-tuple index: [entry h row] per slot *)
  mutable table_used : int; (* slots not free *)
}

type t = {
  nodes : node array; (* database order *)
  jt : Join_tree.t;
  mutable total : int; (* sum of |multiplicity| over live rows *)
  mutable clock : int;
}

(* ---------- cells, hashes and keys ---------- *)

let[@inline] float_hash x =
  if x = 0.0 then 0 else if x <> x then 1 else Int64.to_int (Int64.bits_of_float x)

let value_hash = function
  | Value.Int x -> x
  | Value.Float x -> float_hash x
  | Value.Null -> 2
  | Value.Str s -> Hashtbl.hash s

let row_hash n r =
  let h = ref 17 in
  for j = 0 to Array.length n.cells - 1 do
    let c =
      match Column.data (Array.unsafe_get n.cells j) with
      | Column.Ints a -> a.(r)
      | Column.Floats a -> float_hash a.(r)
      | Column.Boxed a -> value_hash a.(r)
    in
    h := Keypack.hash (!h + c)
  done;
  !h

let cell_equal c r s =
  match Column.data c with
  | Column.Ints a -> a.(r) = a.(s)
  | Column.Floats a ->
      let x = a.(r) and y = a.(s) in
      x = y || (x <> x && y <> y)
  | Column.Boxed a -> Value.equal a.(r) a.(s)

(* Closure-free loops: comparing rows, probing tables and walking buckets
   allocate nothing. *)
let rec same_from cells r s j =
  j = Array.length cells || (cell_equal cells.(j) r s && same_from cells r s (j + 1))

let tuple_of n r = Array.map (fun c -> Column.get c r) n.cells

(* ---------- join-key indexes ---------- *)

(* Link row [r] at the head of its bucket. *)
let link n ix r =
  let p = Keypack.pack n.cells ix.positions r in
  let first =
    if p <> Keypack.nopack then Keypack.Index.replace ix.heads p r
    else Keypack.Index.replace_boxed ix.heads (Keypack.tuple n.cells ix.positions r) r
  in
  let links = n.links and at = (r * n.stride) + ix.off in
  links.(at) <- first;
  links.(at + 1) <- -1;
  if first >= 0 then links.((first * n.stride) + ix.off + 1) <- r

let unlink n ix r =
  let links = n.links and at = (r * n.stride) + ix.off in
  let o = links.(at) and w = links.(at + 1) in
  if o >= 0 then links.((o * n.stride) + ix.off + 1) <- w;
  if w >= 0 then links.((w * n.stride) + ix.off) <- o
  else
    let p = Keypack.pack n.cells ix.positions r in
    if p <> Keypack.nopack then
      if o >= 0 then ignore (Keypack.Index.replace ix.heads p o)
      else Keypack.Index.remove ix.heads p
    else
      let key = Keypack.tuple n.cells ix.positions r in
      if o >= 0 then ignore (Keypack.Index.replace_boxed ix.heads key o)
      else Keypack.Index.remove_boxed ix.heads key

(* ---------- the whole-tuple index ---------- *)

(* A slot's entry: bits 32-61 of the hash above the row id, so entries
   are non-negative and the probe start (the hash's low bits) and the
   compared bits are independent. *)
let[@inline] entry h r = ((h lsr 32) land 0x3FFFFFFF) lsl 32 lor r
let[@inline] row_of e = e land 0xFFFFFFFF

(* The slot of the live row equal to row [s] (hash [h]), or [-1 - slot]
   with the slot a new row would take. *)
let rec probe n tbl mask bits s i reuse =
  let e = Array.unsafe_get tbl i in
  if e = free_slot then -1 - if reuse >= 0 then reuse else i
  else if e = dead_slot then
    probe n tbl mask bits s ((i + 1) land mask) (if reuse >= 0 then reuse else i)
  else if e lsr 32 = bits && same_from n.cells (row_of e) s 0 then i
  else probe n tbl mask bits s ((i + 1) land mask) reuse

let find n h s =
  let tbl = n.table in
  let mask = Array.length tbl - 1 in
  probe n tbl mask (entry h 0 lsr 32) s (h land mask) (-1)

(* A power of two at least four times [n], and at least 16. *)
let table_size n =
  let rec go s = if s >= 4 * n then s else go (2 * s) in
  go 16

(* Rebuild the whole-tuple index from the live rows, in place unless they
   need a larger table. *)
let retable n =
  let size = table_size (n.live + 1) in
  if size > Array.length n.table then n.table <- Array.make size free_slot
  else Array.fill n.table 0 (Array.length n.table) free_slot;
  n.table_used <- 0;
  for r = 0 to n.rows - 1 do
    if n.mult.(r) <> 0 then begin
      let h = row_hash n r in
      n.table.(-1 - find n h r) <- entry h r;
      n.table_used <- n.table_used + 1
    end
  done

(* ---------- construction ---------- *)

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

let initial_rows = 16

let create (db : Database.t) =
  let jt = Database.join_tree db in
  let edges = neighbour_edges jt in
  let node rel =
    let name = Relation.name rel in
    let schema = Relation.schema rel in
    let indexes =
      List.filter (fun (a, _) -> a = name) edges
      |> List.mapi (fun i (_, b) ->
             let other = Join_tree.relation_by_name jt b in
             (* sorted so both endpoints of an edge agree on key order *)
             let key = List.sort compare (Schema.common schema (Relation.schema other)) in
             {
               neighbour = b;
               positions = Array.of_list (List.map (Schema.position schema) key);
               off = 2 * i;
               heads = Keypack.Index.create ();
             })
    in
    let stride = 2 * List.length indexes in
    {
      name;
      schema;
      cells =
        Array.of_list
          (List.map (fun (a : Schema.attr) -> Column.create a.ty initial_rows) (Schema.attrs schema));
      indexes = Array.of_list indexes;
      neighbours = List.map (fun ix -> ix.neighbour) indexes;
      stride;
      rows = 0;
      capacity = initial_rows;
      mult = Array.make initial_rows 0;
      stamp = Array.make initial_rows 0;
      links = Array.make (initial_rows * stride) (-1);
      live = 0;
      table = Array.make 16 free_slot;
      table_used = 0;
    }
  in
  { nodes = Array.of_list (List.map node (Database.relations db)); jt; total = 0; clock = 0 }

let rec node_from nodes name i =
  if i = Array.length nodes then
    invalid_arg (Printf.sprintf "Storage.node: unknown relation %s" name)
  else if String.equal nodes.(i).name name then nodes.(i)
  else node_from nodes name (i + 1)

let node t name = node_from t.nodes name 0

let name (n : node) = n.name
let schema (n : node) = n.schema
let neighbours (n : node) = n.neighbours
let cells (n : node) = n.cells
let total_tuples t = t.total
let join_tree t = t.jt

(* ---------- compaction and staging ---------- *)

(* Move the rows with a non-zero multiplicity down over the dead ones, in
   order, and clear the rest: one typed loop per representation, so no
   cell is boxed and no int store pays the write barrier. *)
let keep_ints (a : int array) mult rows =
  let w = ref 0 in
  for r = 0 to rows - 1 do
    if Array.unsafe_get mult r <> 0 then begin
      Array.unsafe_set a !w (Array.unsafe_get a r);
      incr w
    end
  done;
  Array.fill a !w (rows - !w) 0

let keep_floats (a : float array) mult rows =
  let w = ref 0 in
  for r = 0 to rows - 1 do
    if Array.unsafe_get mult r <> 0 then begin
      Array.unsafe_set a !w (Array.unsafe_get a r);
      incr w
    end
  done;
  Array.fill a !w (rows - !w) 0.0

let keep_values (a : Value.t array) mult rows =
  let w = ref 0 in
  for r = 0 to rows - 1 do
    if Array.unsafe_get mult r <> 0 then begin
      Array.unsafe_set a !w (Array.unsafe_get a r);
      incr w
    end
  done;
  Array.fill a !w (rows - !w) Value.Null

(* Drop the dead rows, keeping the order, and rebuild every table in
   place. *)
let compact n =
  Obs.incr c_compactions;
  let mult = n.mult and rows = n.rows in
  for j = 0 to Array.length n.cells - 1 do
    match Column.data n.cells.(j) with
    | Column.Ints a -> keep_ints a mult rows
    | Column.Floats a -> keep_floats a mult rows
    | Column.Boxed a -> keep_values a mult rows
  done;
  keep_ints n.stamp mult rows;
  keep_ints mult mult rows;
  n.rows <- n.live;
  retable n;
  for k = 0 to Array.length n.indexes - 1 do
    let ix = n.indexes.(k) in
    Keypack.Index.clear ix.heads;
    for r = 0 to n.rows - 1 do
      link n ix r
    done
  done

let extend a size fill =
  let b = Array.make size fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Room for the staging row: a full node compacts when at least a
   sixteenth of its rows are dead, and doubles otherwise. *)
let reserve n =
  if n.rows = n.capacity then
    if 16 * (n.rows - n.live) >= n.rows then compact n
    else begin
      let cap = 2 * n.capacity in
      Array.iter (fun c -> Column.grow c cap) n.cells;
      n.mult <- extend n.mult cap 0;
      n.stamp <- extend n.stamp cap 0;
      n.links <- extend n.links (cap * n.stride) (-1);
      n.capacity <- cap
    end

let stage n (tuple : Tuple.t) =
  if Array.length tuple <> Array.length n.cells then
    invalid_arg
      (Printf.sprintf "Storage.stage: arity mismatch on %s (%d vs %d)" n.name
         (Array.length tuple) (Array.length n.cells));
  reserve n;
  let s = n.rows in
  for j = 0 to Array.length n.cells - 1 do
    Column.set n.cells.(j) s tuple.(j)
  done;
  s

let multiplicity n tuple =
  let s = stage n tuple in
  let i = find n (row_hash n s) s in
  if i >= 0 then n.mult.(row_of n.table.(i)) else 0

(* ---------- reading through join keys ---------- *)

type edge = { en : node; ix : index }

let edge n ~neighbour =
  match Array.find_opt (fun ix -> ix.neighbour = neighbour) n.indexes with
  | Some ix -> { en = n; ix }
  | None -> invalid_arg "Storage.edge: not a neighbour"

(* Keys as ints and bucket walks by row id: no [Keypack.key], closure or
   option on an update's path. *)
let edge_packed { en; ix } r = Keypack.pack en.cells ix.positions r
let edge_tuple { en; ix } r = Keypack.tuple en.cells ix.positions r

let first { ix; _ } p key =
  if p <> Keypack.nopack then Keypack.Index.find ix.heads p else Keypack.Index.find_boxed ix.heads key

let next { en; ix } r = en.links.((r * en.stride) + ix.off)
let row_multiplicity n r = n.mult.(r)

(* ---------- updates ---------- *)

(* The staged row [s] (hash [h]) becomes live with multiplicity [m] at
   whole-tuple slot [i]. *)
let add_row t n s h i m =
  if n.table.(i) = free_slot then n.table_used <- n.table_used + 1;
  n.table.(i) <- entry h s;
  n.mult.(s) <- m;
  n.stamp.(s) <- t.clock;
  t.clock <- t.clock + 1;
  n.rows <- s + 1;
  n.live <- n.live + 1;
  for k = 0 to Array.length n.indexes - 1 do
    link n n.indexes.(k) s
  done

(* Row [r], at whole-tuple slot [i], reached multiplicity 0. *)
let kill n r i =
  for k = 0 to Array.length n.indexes - 1 do
    unlink n n.indexes.(k) r
  done;
  n.table.(i) <- dead_slot;
  n.mult.(r) <- 0;
  n.live <- n.live - 1;
  if n.rows - n.live > n.live then compact n

let apply_staged t n m =
  if m <> 0 then begin
    let s = n.rows in
    let h = row_hash n s in
    let i = find n h s in
    if i >= 0 then begin
      let r = row_of n.table.(i) in
      let old = n.mult.(r) in
      let m' = old + m in
      t.total <- t.total + abs m' - abs old;
      if m' = 0 then kill n r i else n.mult.(r) <- m'
    end
    else begin
      let i = -1 - i in
      if n.table.(i) = free_slot && 2 * (n.table_used + 1) > Array.length n.table then begin
        retable n;
        add_row t n s h (-1 - find n h s) m
      end
      else add_row t n s h i m;
      t.total <- t.total + abs m
    end
  end

let apply t (u : Delta.update) =
  let n = node t u.relation in
  ignore (stage n u.tuple);
  apply_staged t n u.multiplicity

(* ---------- reading the contents ---------- *)

let iter_live n f =
  for r = 0 to n.rows - 1 do
    let m = n.mult.(r) in
    if m <> 0 then f r m
  done

(* The rows to copy, as [start; length; copies] triples in row order:
   each run of rows of multiplicity 1 once, and each row of multiplicity
   m > 1 alone, m times. Counted first, then filled, with no allocation
   besides the triples. *)
let rec skip_ones (mult : int array) rows r =
  if r < rows && Array.unsafe_get mult r = 1 then skip_ones mult rows (r + 1) else r

let rec count_runs (mult : int array) rows r k =
  if r >= rows then k
  else
    let m = Array.unsafe_get mult r in
    if m = 1 then count_runs mult rows (skip_ones mult rows r) (k + 1)
    else count_runs mult rows (r + 1) (if m > 1 then k + 1 else k)

let rec fill_runs (mult : int array) rows out r k =
  if r < rows then begin
    let m = Array.unsafe_get mult r in
    let e = if m = 1 then skip_ones mult rows r else r + 1 in
    if m >= 1 then begin
      out.(k) <- r;
      out.(k + 1) <- e - r;
      out.(k + 2) <- m
    end;
    fill_runs mult rows out e (if m >= 1 then k + 3 else k)
  end

let runs n =
  let out = Array.make (3 * count_runs n.mult n.rows 0 0) 0 in
  fill_runs n.mult n.rows out 0 0;
  out

(* Rows the runs copy. *)
let copied runs =
  let size = ref 0 in
  for k = 0 to (Array.length runs / 3) - 1 do
    size := !size + (runs.((3 * k) + 1) * runs.((3 * k) + 2))
  done;
  !size

(* One column's copy: a [blit] per run and copy, into [dst]. *)
let copy_runs blit runs src dst =
  let w = ref 0 in
  for k = 0 to (Array.length runs / 3) - 1 do
    let start = runs.(3 * k) and len = runs.((3 * k) + 1) in
    for _ = 1 to runs.((3 * k) + 2) do
      blit src start dst !w len;
      w := !w + len
    done
  done;
  dst

(* Typed blits: [Array.blit] is a C call, and into a major-heap int array
   it stores through the write barrier. *)
let blit_ints (src : int array) s (dst : int array) d len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst (d + i) (Array.unsafe_get src (s + i))
  done

let blit_floats (src : float array) s (dst : float array) d len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst (d + i) (Array.unsafe_get src (s + i))
  done

(* A boxed column whose copied cells all fit its declared type comes out
   typed, as appending them to a fresh relation would leave it. *)
let of_boxed (ty : Value.ty) (cells : Value.t array) =
  let fits = function
    | Value.Int _ -> ty = Value.TInt
    | Value.Float _ -> ty = Value.TFloat
    | Value.Null | Value.Str _ -> false
  in
  match ty with
  | Value.TInt when Array.for_all fits cells -> Column.of_ints (Array.map Value.to_int cells)
  | Value.TFloat when Array.for_all fits cells ->
      Column.of_floats (Array.map Value.to_float cells)
  | _ -> Column.of_boxed cells

let columns n =
  let runs = runs n in
  let size = copied runs in
  let cols =
    Array.mapi
      (fun j c ->
        match Column.data c with
        | Column.Ints a -> Column.of_ints (copy_runs blit_ints runs a (Array.make size 0))
        | Column.Floats a ->
            Column.of_floats (copy_runs blit_floats runs a (Array.create_float size))
        | Column.Boxed a ->
            of_boxed (Schema.attr_at n.schema j).ty
              (copy_runs Array.blit runs a (Array.make size Value.Null)))
      n.cells
  in
  (cols, size)

(* Live contents oldest first: the nodes' rows merged by stamp, built
   newest first. *)
let dump t : Delta.update list =
  let rec prev_live n r = if r >= 0 && n.mult.(r) = 0 then prev_live n (r - 1) else r in
  let cur = Array.map (fun n -> prev_live n (n.rows - 1)) t.nodes in
  let rec go acc =
    let best = ref (-1) in
    Array.iteri
      (fun i r ->
        if r >= 0 && (!best < 0 || t.nodes.(i).stamp.(r) > t.nodes.(!best).stamp.(cur.(!best)))
        then best := i)
      cur;
    if !best < 0 then acc
    else
      let n = t.nodes.(!best) and r = cur.(!best) in
      cur.(!best) <- prev_live n (r - 1);
      go ({ Delta.relation = n.name; tuple = tuple_of n r; multiplicity = n.mult.(r) } :: acc)
  in
  go []
