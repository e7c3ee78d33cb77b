(* In-memory relations: a schema plus typed columns (see [Column]).

   Relations are bags (duplicates allowed); set semantics is available via
   [distinct]. Mutation is append-only — the IVM layer models deletions with
   Z-multiplicities instead (see [Fivm.Delta]) — apart from {!cluster},
   which reorders the rows in place.

   The physical layout is columnar: one typed column per attribute, unboxed
   [int array] / [float array] where the schema allows, promoted to boxed
   values only when a stored value demands it. Boxed [Tuple.t]s remain the
   interchange format at the edges ([append], [get], [iter], CSV); hot paths
   scan columns via {!scan} and pack keys via {!extractor} instead. *)

type t = {
  name : string;
  schema : Schema.t;
  cols : Column.t array;
  mutable size : int;
  mutable capacity : int;
}

(* Observability: columnar scans vs. boxed-tuple materialisations, so the
   migration away from row-at-a-time access is visible in metrics. *)
let c_column_scans = Obs.counter "relational.column_scans"
let c_boxed_tuples = Obs.counter "relational.boxed_tuples"

let create ?(capacity = 16) name schema =
  let capacity = Stdlib.max 1 capacity in
  {
    name;
    schema;
    cols =
      Array.map
        (fun (a : Schema.attr) -> Column.create a.ty capacity)
        (Array.of_list (Schema.attrs schema));
    size = 0;
    capacity;
  }

let name t = t.name
let schema t = t.schema
let cardinality t = t.size

let reserve t =
  if t.size = t.capacity then begin
    let bigger = 2 * t.capacity in
    Array.iter (fun c -> Column.grow c bigger) t.cols;
    t.capacity <- bigger
  end

let append t tuple =
  if Array.length tuple <> Schema.arity t.schema then
    invalid_arg
      (Printf.sprintf "Relation.append: arity mismatch on %s (%d vs %d)" t.name
         (Array.length tuple) (Schema.arity t.schema));
  reserve t;
  let i = t.size in
  Array.iteri (fun j c -> Column.set c i tuple.(j)) t.cols;
  t.size <- i + 1

let of_list name schema tuples =
  let t = create ~capacity:(Stdlib.max 1 (List.length tuples)) name schema in
  List.iter (append t) tuples;
  t

(* ---- columnar access (hot paths) ---- *)

let columns t = t.cols
let column t j = t.cols.(j)

let scan t =
  Obs.incr c_column_scans;
  Array.map Column.data t.cols

let extractor t positions =
  Keypack.extractor (Array.map (fun p -> t.cols.(p)) positions)

let float_at t i pos = Column.float_at t.cols.(pos) i
let int_at t i pos = Column.int_at t.cols.(pos) i

(* Row cursor: attribute reads on row [i] without materialising a tuple. *)
module Row = struct
  type nonrec t = { rel : t; mutable i : int }

  let value r pos = Column.get r.rel.cols.(pos) r.i
  let float r pos = Column.float_at r.rel.cols.(pos) r.i
  let int r pos = Column.int_at r.rel.cols.(pos) r.i
end

let row t i = { Row.rel = t; i }

(* ---- append fast paths (no intermediate boxed tuple) ---- *)

(* Append row [i] of [src]; the caller guarantees compatible schemas. *)
let append_from t src i =
  reserve t;
  let d = t.size in
  for j = 0 to Array.length t.cols - 1 do
    Column.copy_cell ~src:src.cols.(j) ~src_i:i ~dst:t.cols.(j) ~dst_i:d
  done;
  t.size <- d + 1

(* Append the projection of row [i] of [src] onto [positions]. *)
let append_project t src positions i =
  reserve t;
  let d = t.size in
  for j = 0 to Array.length positions - 1 do
    Column.copy_cell ~src:src.cols.(positions.(j)) ~src_i:i ~dst:t.cols.(j) ~dst_i:d
  done;
  t.size <- d + 1

(* Append row [i] of [a] followed by [b]'s [b_positions] of row [j] — the
   natural-join output row, built column-to-column. *)
let append_concat t a i b b_positions j =
  reserve t;
  let d = t.size in
  let na = Array.length a.cols in
  for p = 0 to na - 1 do
    Column.copy_cell ~src:a.cols.(p) ~src_i:i ~dst:t.cols.(p) ~dst_i:d
  done;
  for q = 0 to Array.length b_positions - 1 do
    Column.copy_cell ~src:b.cols.(b_positions.(q)) ~src_i:j ~dst:t.cols.(na + q) ~dst_i:d
  done;
  t.size <- d + 1

(* Wrap freshly built columns as a relation; the caller transfers ownership
   and guarantees every column holds at least [size] cells. *)
let of_columns name schema cols size =
  let capacity =
    Array.fold_left
      (fun acc c -> Stdlib.min acc (Column.capacity c))
      (Stdlib.max 1 size) cols
  in
  { name; schema; cols; size; capacity }

(* Replace [t]'s rows with freshly built columns, under the same terms as
   [of_columns]. *)
let install t cols size =
  if Array.length cols <> Array.length t.cols then
    invalid_arg (Printf.sprintf "Relation.install: arity mismatch on %s" t.name);
  Array.blit cols 0 t.cols 0 (Array.length cols);
  t.size <- size;
  t.capacity <-
    Array.fold_left (fun acc c -> Stdlib.min acc (Column.capacity c)) (Stdlib.max 1 size) cols

(* Whole-column projection: the output columns are copies of the selected
   input columns, no per-row work at all. *)
let of_projection name src positions out_schema =
  {
    name;
    schema = out_schema;
    cols = Array.map (fun p -> Column.sub src.cols.(p) src.size) positions;
    size = src.size;
    capacity = Stdlib.max 1 src.size;
  }

(* ---- clustering ---- *)

(* The rank of each row's composite key over the [Ints] key columns [a],
   with the number of ranks, when that number is at most [limit]: field
   [j] is offset by its minimum and weighted by the product of the later
   fields' ranges, so ranks order rows as their keys do. *)
let composite_ranks (a : int array array) n ~limit =
  let k = Array.length a in
  let lo = Array.make k max_int and hi = Array.make k min_int in
  Array.iteri
    (fun j col ->
      for i = 0 to n - 1 do
        let x = col.(i) in
        if x < lo.(j) then lo.(j) <- x;
        if x > hi.(j) then hi.(j) <- x
      done)
    a;
  let stride = Array.make k 1 and ranks = ref 1 in
  for j = k - 1 downto 0 do
    let range = hi.(j) - lo.(j) + 1 in
    stride.(j) <- !ranks;
    ranks := if range <= 0 || !ranks > limit / range then limit + 1 else !ranks * range
  done;
  if !ranks > limit then None
  else begin
    let rank = Array.make n 0 in
    Array.iteri
      (fun j col ->
        let l = lo.(j) and w = stride.(j) in
        for i = 0 to n - 1 do
          rank.(i) <- rank.(i) + ((col.(i) - l) * w)
        done)
      a;
    Some (rank, !ranks)
  end

(* Each row's position in the stable order of [rank]: one counting pass
   and one placing pass, written over [rank]. *)
let counting_dest rank ranks =
  let start = Array.make (ranks + 1) 0 in
  Array.iter (fun r -> start.(r + 1) <- start.(r + 1) + 1) rank;
  for r = 1 to ranks do
    start.(r) <- start.(r) + start.(r - 1)
  done;
  Array.iteri
    (fun i r ->
      rank.(i) <- start.(r);
      start.(r) <- start.(r) + 1)
    rank;
  rank

(* The same without ranks, for keys whose ranges multiply past the
   counting limit: a stable merge sort of row ids. *)
let merge_dest (a : int array array) n =
  let cmp i j =
    let rec go f =
      if f = Array.length a then 0
      else match Int.compare a.(f).(i) a.(f).(j) with 0 -> go (f + 1) | c -> c
    in
    go 0
  in
  let order = Array.init n Fun.id in
  Array.stable_sort cmp order;
  let dest = Array.make n 0 in
  Array.iteri (fun pos i -> dest.(i) <- pos) order;
  dest

let cluster t positions =
  let n = t.size in
  let keys =
    Array.map
      (fun p -> match Column.data t.cols.(p) with Column.Ints a -> Some a | _ -> None)
      positions
  in
  if n < 2 || positions = [||] || Array.exists Option.is_none keys then false
  else begin
    let a = Array.map Option.get keys in
    let rec sorted i f =
      i = n
      ||
      if f = Array.length a then sorted (i + 1) 0
      else
        let c = Int.compare a.(f).(i - 1) a.(f).(i) in
        if c < 0 then sorted (i + 1) 0 else c = 0 && sorted i (f + 1)
    in
    if sorted 1 0 then false
    else begin
      let dest =
        match composite_ranks a n ~limit:(Stdlib.max 1024 (4 * n)) with
        | Some (rank, ranks) -> counting_dest rank ranks
        | None -> merge_dest a n
      in
      Array.iter (fun c -> Column.scatter c dest n) t.cols;
      true
    end
  end

(* ---- boxed access (edges and compatibility) ---- *)

let box_row t i = Array.map (fun c -> Column.get c i) t.cols

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Relation.get: out of bounds";
  Obs.incr c_boxed_tuples;
  box_row t i

let iter f t =
  Obs.add c_boxed_tuples t.size;
  for i = 0 to t.size - 1 do
    f (box_row t i)
  done

let iteri f t =
  Obs.add c_boxed_tuples t.size;
  for i = 0 to t.size - 1 do
    f i (box_row t i)
  done

let fold f init t =
  Obs.add c_boxed_tuples t.size;
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc (box_row t i)
  done;
  !acc

let to_list t =
  Obs.add c_boxed_tuples t.size;
  List.init t.size (fun i -> box_row t i)

let copy t =
  {
    t with
    cols = Array.map (fun c -> Column.sub c t.size) t.cols;
    capacity = Stdlib.max 1 t.size;
  }

let value_at t i attr =
  if i < 0 || i >= t.size then invalid_arg "Relation.value_at: out of bounds";
  Column.get t.cols.(Schema.position t.schema attr) i

(* Number of values = cardinality x arity; the paper's factorisation-size
   metric counts values, not tuples. *)
let value_count t = t.size * Schema.arity t.schema

(* Approximate CSV byte size: what the CSV serialisation would produce.
   Computed column-wise without materialising tuples or the string. *)
let csv_size t =
  let bytes = ref 0 in
  Array.iter
    (fun c ->
      match Column.data c with
      | Column.Ints a ->
          for i = 0 to t.size - 1 do
            bytes := !bytes + String.length (string_of_int a.(i)) + 1
          done
      | Column.Floats a ->
          for i = 0 to t.size - 1 do
            bytes := !bytes + String.length (Value.to_string (Value.Float a.(i))) + 1
          done
      | Column.Boxed a ->
          for i = 0 to t.size - 1 do
            bytes := !bytes + String.length (Value.to_string a.(i)) + 1
          done)
    t.cols;
  !bytes

let csv_rows t =
  List.init t.size (fun i ->
      Array.to_list (Array.map (fun c -> Value.to_string (Column.get c i)) t.cols))

(* Malformed rows raise [Util.Csvio.Malformed] with their 1-based source
   position; [first_line] anchors row 0 (pass 2 for data under a header
   line, or use {!of_csv_rows_located} when blank lines may interleave). *)
let of_csv_located name schema (rows : (int * string list) list) =
  let tys = Array.of_list (List.map (fun (a : Schema.attr) -> a.ty) (Schema.attrs schema)) in
  let t = create ~capacity:(Stdlib.max 1 (List.length rows)) name schema in
  List.iter
    (fun (line, row) ->
      let cells = Array.of_list row in
      if Array.length cells <> Array.length tys then
        Util.Csvio.malformed ~line ~column:(Array.length cells)
          (Printf.sprintf "expected %d cells for schema of %s, got %d"
             (Array.length tys) name (Array.length cells));
      append t
        (Array.mapi
           (fun i cell ->
             try Value.of_string tys.(i) cell
             with _ ->
               Util.Csvio.malformed ~line ~column:(i + 1)
                 (Printf.sprintf "cannot parse %S as %s" cell
                    (Value.ty_to_string tys.(i))))
           cells))
    rows;
  t

let of_csv_rows ?(first_line = 1) name schema rows =
  of_csv_located name schema (List.mapi (fun i row -> (first_line + i, row)) rows)

let of_csv_rows_located = of_csv_located

let distinct_count t =
  let all = Array.init (Schema.arity t.schema) Fun.id in
  let key = extractor t all in
  let seen = Keypack.Hybrid.create (Stdlib.max 16 t.size) in
  for i = 0 to t.size - 1 do
    let k = key i in
    if not (Keypack.Hybrid.mem seen k) then Keypack.Hybrid.add seen k ()
  done;
  Keypack.Hybrid.length seen

let pp ppf t =
  Format.fprintf ppf "%s%a [%d tuples]@\n" t.name Schema.pp t.schema t.size;
  let limit = Stdlib.min t.size 20 in
  for i = 0 to limit - 1 do
    Format.fprintf ppf "  %a@\n" Tuple.pp (box_row t i)
  done;
  if t.size > limit then Format.fprintf ppf "  ... (%d more)@\n" (t.size - limit)
