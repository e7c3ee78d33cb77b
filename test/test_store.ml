(* Paged columnar store: codec round-trips, corruption rejection, and the
   bit-identity contract of the out-of-core paths.

   The headline differentials assert that moving cells out of memory changes
   NOTHING about the answers: the covariance batch evaluated over paged
   streams (with the page cache shrunk until it thrashes) is bitwise equal
   to in-memory execution,
   F-IVM maintainers base-loaded from per-shard page directories reproduce
   the directly-maintained covariance bit for bit on exact (dyadic-lattice)
   streams, and the spill-aware group-by/join emit bitwise-identical
   relations at every spill threshold — including threshold 0, where every
   row goes through the disk partitions — and under every worker budget. *)

open Relational
module Page = Store.Page
module Paged = Store.Paged
module Loader = Store.Loader
module M = Fivm.Maintainer
module Delta = Fivm.Delta
module Shard = Fivm.Shard
module Cov = Rings.Covariance
module Sg = Datagen.Stream_gen

let int n = Value.Int n
let flt x = Value.Float x
let bits = Int64.bits_of_float
let qcheck = QCheck_alcotest.to_alcotest

(* Run [f] under an explicit Pool worker budget (the in-process equivalent
   of BORG_DOMAINS: budget 0 = everything inline = 1 domain, budget 3 = up
   to 4 live domains), restoring the real budget afterwards. *)
let with_worker_budget b f =
  let saved = Util.Pool.worker_budget () in
  Util.Pool.set_worker_budget b;
  Fun.protect ~finally:(fun () -> Util.Pool.set_worker_budget saved) f

let budgets = [ 0; 3 ]

(* ---- bitwise comparison helpers ---- *)

let value_bits_equal a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> bits x = bits y
  | _ -> Value.equal a b

let rel_bit_identical a b =
  Relation.cardinality a = Relation.cardinality b
  && Schema.names (Relation.schema a) = Schema.names (Relation.schema b)
  && (let ok = ref true in
      for i = 0 to Relation.cardinality a - 1 do
        let ta = Relation.get a i and tb = Relation.get b i in
        if Array.length ta <> Array.length tb then ok := false
        else
          Array.iteri
            (fun j v -> if not (value_bits_equal v tb.(j)) then ok := false)
            ta
      done;
      !ok)

(* ---- generators ---- *)

(* Columns exercising every physical representation: "k" stays Ints, "m"
   stays Floats (special values included: signed zeros, infinities, nan,
   subnormals — all must survive bitwise), "s" is Boxed from the start, and
   "x" is DECLARED TInt but occasionally fed a Null, forcing the mid-column
   promotion to Boxed that the codec's fallback tag must round-trip. *)
let wild_float rng =
  match Util.Prng.int rng 8 with
  | 0 -> 0.0
  | 1 -> -0.0
  | 2 -> infinity
  | 3 -> neg_infinity
  | 4 -> nan
  | 5 -> 4.9e-324 (* smallest subnormal *)
  | 6 -> -1.5
  | _ -> Util.Prng.float rng 1e6

let wild_string rng =
  match Util.Prng.int rng 4 with
  | 0 -> ""
  | 1 -> "x"
  | 2 -> String.make (Util.Prng.int rng 40) '\xff'
  | _ -> Printf.sprintf "s%d" (Util.Prng.int rng 1000)

let random_relation ?(name = "T") rng rows =
  let rel =
    Relation.create name
      (Schema.make
         [
           ("k", Value.TInt);
           ("m", Value.TFloat);
           ("s", Value.TStr);
           ("x", Value.TInt);
         ])
  in
  for _ = 1 to rows do
    let x =
      if Util.Prng.int rng 5 = 0 then Value.Null
      else int (Util.Prng.int rng 100)
    in
    Relation.append rel
      [| int (Util.Prng.int rng 1000); flt (wild_float rng); Value.Str (wild_string rng); x |]
  done;
  rel

(* ------------------------------------------------ page codec round-trip *)

let page_roundtrip =
  QCheck2.Test.make ~count:150 ~name:"page codec round-trips bitwise"
    QCheck2.Gen.(pair (int_range 0 150) int)
    (fun (rows, seed) ->
      let rng = Util.Prng.create seed in
      let rel = random_relation rng rows in
      let enc = Page.encode ~index:3 rel ~lo:0 ~rows in
      let p = Page.decode enc in
      let back = Page.to_relation "T" (Relation.schema rel) p in
      p.Page.index = 3 && p.Page.rows = rows && rel_bit_identical rel back)

let page_slice_roundtrip =
  QCheck2.Test.make ~count:80 ~name:"page slices round-trip from any offset"
    QCheck2.Gen.(pair (int_range 2 120) int)
    (fun (rows, seed) ->
      let rng = Util.Prng.create seed in
      let rel = random_relation rng rows in
      let lo = Util.Prng.int rng rows in
      let n = 1 + Util.Prng.int rng (rows - lo) in
      let p = Page.decode (Page.encode ~index:0 rel ~lo ~rows:n) in
      let back = Page.to_relation "T" (Relation.schema rel) p in
      p.Page.rows = n
      && (let ok = ref true in
          for i = 0 to n - 1 do
            let ta = Relation.get rel (lo + i) and tb = Relation.get back i in
            Array.iteri
              (fun j v -> if not (value_bits_equal v tb.(j)) then ok := false)
              ta
          done;
          !ok))

(* Every single-byte corruption of a page — torn tail, flipped magic,
   flipped length, flipped CRC, flipped payload — must be rejected with a
   LOCATED decode error: nonempty reason, offset inside the page image
   (plus the relocation base when the caller passes one). *)
let located_rejection ~at enc mutate =
  match Page.decode ?at (mutate enc) with
  | _ -> false
  | exception Codec.Decode_error { offset; reason } ->
      let base = match at with Some b -> b | None -> 0 in
      reason <> ""
      && offset >= base
      && offset <= base + String.length enc + 8

let page_rejects_torn_tail =
  QCheck2.Test.make ~count:100 ~name:"torn page tails are rejected, located"
    QCheck2.Gen.(pair (int_range 1 60) int)
    (fun (rows, seed) ->
      let rng = Util.Prng.create seed in
      let enc = Page.encode ~index:0 (random_relation rng rows) ~lo:0 ~rows in
      let cut = Util.Prng.int rng (String.length enc) in
      located_rejection ~at:None enc (fun s -> String.sub s 0 cut)
      && located_rejection ~at:(Some 4096) enc (fun s -> String.sub s 0 cut))

let page_rejects_flips =
  QCheck2.Test.make ~count:150 ~name:"flipped page bytes are rejected, located"
    QCheck2.Gen.(pair (int_range 1 60) int)
    (fun (rows, seed) ->
      let rng = Util.Prng.create seed in
      let enc = Page.encode ~index:0 (random_relation rng rows) ~lo:0 ~rows in
      let pos = Util.Prng.int rng (String.length enc) in
      let flip s =
        let d = Bytes.of_string s in
        Bytes.set d pos (Char.chr (Char.code (Bytes.get d pos) lxor 0x10));
        Bytes.to_string d
      in
      located_rejection ~at:None enc flip
      && located_rejection ~at:(Some 8192) enc flip)

(* Errors inside a frame's payload are located at their true offsets: the
   payload is read in place, 12 bytes (magic, length, CRC) into the page. *)
let test_decode_errors_at_true_offsets () =
  (* a one-column page: index, rows and ncols (9 payload bytes), then the
     column as [column] writes it *)
  let page ~rows column =
    let payload = Buffer.create 32 in
    Codec.u32 payload 0;
    Codec.u32 payload rows;
    Codec.u8 payload 1;
    column payload;
    let b = Buffer.create 64 in
    Buffer.add_string b Page.magic;
    Codec.frame b (Buffer.contents payload);
    Buffer.contents b
  in
  (* the tag byte (7) is at payload offset 9 *)
  let bad_tag = page ~rows:1 (fun b -> Codec.u8 b 7) in
  (* an Ints column of two rows holding one cell: the missing cell starts
     at payload offset 18 *)
  let truncated =
    page ~rows:2 (fun b ->
        Codec.u8 b 0;
        Codec.i64 b 42)
  in
  let offset_of ?at s =
    match Page.decode ?at s with
    | _ -> Alcotest.fail "malformed payload accepted"
    | exception Codec.Decode_error { offset; _ } -> offset
  in
  Alcotest.(check int) "bad tag" 21 (offset_of bad_tag);
  Alcotest.(check int) "bad tag, at 1000" 1021 (offset_of ~at:1000 bad_tag);
  Alcotest.(check int) "truncated ints" 30 (offset_of truncated);
  Alcotest.(check int) "truncated ints, at 1000" 1030 (offset_of ~at:1000 truncated)

(* Decoding allocates the column arrays and a fixed number of minor words,
   whatever the row count: no closure call and no boxed float per cell.
   A column array of at most 256 cells is itself a minor allocation (one
   word per cell and a header); a larger one goes to the major heap. *)
let test_decode_allocation_bounded () =
  let rel = Relation.create "T" (Schema.make [ ("k", Value.TInt); ("m", Value.TFloat) ]) in
  for i = 0 to 1023 do
    Relation.append rel [| int i; flt (float_of_int i /. 3.0) |]
  done;
  let minor_overhead rows =
    let enc = Page.encode ~index:0 rel ~lo:0 ~rows in
    ignore (Page.decode enc);
    let before = Gc.minor_words () in
    let p = Page.decode enc in
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "rows" rows p.Page.rows;
    let arrays = if rows <= 256 then 2 * (rows + 1) else 0 in
    int_of_float words - arrays
  in
  let small = minor_overhead 64 and large = minor_overhead 1024 in
  Alcotest.(check int) "same minor words at 64 and 1024 rows" small large;
  Alcotest.(check bool) (Printf.sprintf "overhead %d words is small" small) true (small < 128)

(* The handle reads every page into one buffer, so a held chunk must not
   share it: page 0 stays intact after pages 1 and 2 are read over it. *)
let test_held_chunk_survives_buffer_reuse () =
  Scenario.with_temp_dir @@ fun dir ->
  let rel = random_relation (Util.Prng.create 17) 24 in
  ignore (Loader.import_relation ~dir ~page_rows:8 rel);
  let p = Paged.openr ~cache_pages:2 ~dir "T" in
  let first = Paged.chunk p 0 in
  ignore (Paged.chunk p 1);
  ignore (Paged.chunk p 2);
  Paged.close p;
  let source = Relation.create "T" (Relation.schema rel) in
  for i = 0 to 7 do
    Relation.append_from source rel i
  done;
  Alcotest.(check bool) "page 0 bit-identical" true (rel_bit_identical source first)

(* Rows [lo, lo + n) of [rel] as a relation of their own. *)
let slice rel lo n =
  let out = Relation.create (Relation.name rel) (Relation.schema rel) in
  for i = lo to lo + n - 1 do
    Relation.append_from out rel i
  done;
  out

(* A leased chunk holds its page: with a 1-page budget the page is evicted
   at the next read, and later pages decode over the arrays of released
   ones, yet the held chunk stays bit-identical until it is released. A
   second release is refused. *)
let test_leased_chunk_survives_recycling () =
  Scenario.with_temp_dir @@ fun dir ->
  let rel = random_relation (Util.Prng.create 19) 40 in
  ignore (Loader.import_relation ~dir ~page_rows:8 rel);
  let p = Paged.openr ~cache_pages:1 ~dir "T" in
  let chunks = Paged.stream p in
  Obs.with_enabled true @@ fun () ->
  Obs.reset ();
  (match chunks.Database.seq () with
  | Seq.Nil -> Alcotest.fail "no page"
  | Seq.Cons (first, rest) ->
      Seq.iter chunks.Database.release rest;
      Alcotest.(check int) "pages 3 and 4 decoded over released pages" 2
        (Obs.counter_value_by_name "store.pages_recycled");
      Alcotest.(check bool) "the held page 0 bit-identical" true (rel_bit_identical (slice rel 0 8) first);
      chunks.Database.release first;
      match chunks.Database.release first with
      | () -> Alcotest.fail "a chunk released twice"
      | exception Invalid_argument _ -> ());
  Paged.close p;
  Obs.reset ()

(* Released and evicted, a full page lends its Ints and Floats arrays to
   the next full-size decode (a 1-page budget: page 0 is evicted when page
   1 is read, and page 2 decodes over it); its Boxed columns and the short
   last page get fresh arrays. *)
let test_released_pages_recycled () =
  Scenario.with_temp_dir @@ fun dir ->
  let rel = random_relation (Util.Prng.create 23) 28 in
  ignore (Loader.import_relation ~dir ~page_rows:8 rel);
  let p = Paged.openr ~cache_pages:1 ~dir "T" in
  let chunks = Paged.stream p in
  Obs.with_enabled true @@ fun () ->
  Obs.reset ();
  let seen = ref 0 in
  let data =
    Array.of_seq
      (Seq.map
         (fun c ->
           let n = Relation.cardinality c in
           Alcotest.(check bool) "chunk bit-identical" true (rel_bit_identical (slice rel !seen n) c);
           seen := !seen + n;
           let d = Array.map Column.data (Relation.columns c) in
           chunks.Database.release c;
           d)
         chunks.Database.seq)
  in
  Paged.close p;
  let same a b =
    match (a, b) with
    | Column.Ints x, Column.Ints y -> x == y
    | Column.Floats x, Column.Floats y -> x == y
    | Column.Boxed x, Column.Boxed y -> x == y
    | _ -> false
  in
  Alcotest.(check int) "pages" 4 (Array.length data);
  Alcotest.(check (list bool)) "page 2 reuses page 0's k and m, not s and x"
    [ true; true; false; false ]
    (Array.to_list (Array.map2 same data.(0) data.(2)));
  Alcotest.(check int) "one page recycled" 1 (Obs.counter_value_by_name "store.pages_recycled");
  Alcotest.(check bool) "the short page allocates" false
    (Array.exists (fun d -> Array.exists2 same d data.(3)) (Array.sub data 0 3));
  Obs.reset ()

(* The on-disk format is pinned: the CRC-32 of the page and meta files of
   one fixed relation (ints, floats, strings and nulls over three pages). *)
let test_format_pinned () =
  let rel =
    Relation.create "Pinned"
      (Schema.make [ ("k", Value.TInt); ("m", Value.TFloat); ("s", Value.TStr); ("x", Value.TInt) ])
  in
  for i = 0 to 19 do
    let m =
      match i mod 5 with
      | 0 -> -0.0
      | 1 -> infinity
      | 2 -> 4.9e-324
      | _ -> (float_of_int i /. 8.0) -. 1.25
    in
    let x = if i mod 3 = 0 then Value.Null else int ((i * i) - 50) in
    Relation.append rel
      [| int ((i * 37) - 100); flt m; Value.Str (String.make (i mod 4) (Char.chr (97 + i))); x |]
  done;
  Scenario.with_temp_dir @@ fun dir ->
  ignore (Loader.import_relation ~dir ~page_rows:8 rel);
  let crc path = Util.Checksum.crc32 (In_channel.with_open_bin path In_channel.input_all) in
  let hex = Printf.sprintf "%08x" in
  Alcotest.(check string) "pages file" "1d96216b" (hex (crc (Paged.pages_path dir "Pinned")));
  Alcotest.(check string) "meta file" "6e416240" (hex (crc (Paged.meta_path dir "Pinned")))

(* ----------------------------------------------- paged files round-trip *)

let mk_rel_of rows rng = random_relation rng rows

(* Boundary row counts around an 8-row page: empty file (no pages at all),
   singleton, one-short, exact single page, one-over, exact multi-page. *)
let test_paged_boundary_sizes () =
  List.iter
    (fun rows ->
      Scenario.with_temp_dir @@ fun dir ->
      let rng = Util.Prng.create (1000 + rows) in
      let rel = mk_rel_of rows rng in
      let written = Loader.import_relation ~dir ~page_rows:8 rel in
      Alcotest.(check int) "rows written" rows written;
      let p = Paged.openr ~cache_pages:2 ~dir "T" in
      Alcotest.(check int) "rows" rows (Paged.rows p);
      Alcotest.(check int) "pages" ((rows + 7) / 8) (Paged.pages p);
      let vpages, vrows = Paged.verify p in
      Alcotest.(check int) "verify pages" (Paged.pages p) vpages;
      Alcotest.(check int) "verify rows" rows vrows;
      Alcotest.(check bool) "bit-identical" true
        (rel_bit_identical rel (Paged.to_relation p));
      (* the sequential scan re-assembles the same rows in global order *)
      let seen = ref 0 in
      Paged.iter_chunks p (fun chunk ->
          for i = 0 to Relation.cardinality chunk - 1 do
            let ok = ref true in
            Array.iteri
              (fun j v ->
                if not (value_bits_equal v (Relation.get chunk i).(j)) then
                  ok := false)
              (Relation.get rel (!seen + i));
            Alcotest.(check bool) "chunk row" true !ok
          done;
          seen := !seen + Relation.cardinality chunk);
      Alcotest.(check int) "scanned rows" rows !seen;
      Paged.close p)
    [ 0; 1; 7; 8; 9; 16; 33 ]

let paged_roundtrip_any_budget =
  QCheck2.Test.make ~count:40
    ~name:"import/scan round-trips bitwise under every worker budget"
    QCheck2.Gen.(pair (int_range 0 200) int)
    (fun (rows, seed) ->
      List.for_all
        (fun b ->
          with_worker_budget b @@ fun () ->
          Scenario.with_temp_dir @@ fun dir ->
          let rel = mk_rel_of rows (Util.Prng.create seed) in
          ignore (Loader.import_relation ~dir ~page_rows:16 rel);
          let p = Paged.openr ~cache_pages:2 ~dir "T" in
          let ok = rel_bit_identical rel (Paged.to_relation p) in
          Paged.close p;
          ok)
        budgets)

let test_file_corruption_located () =
  Scenario.with_temp_dir @@ fun dir ->
  let rel = mk_rel_of 64 (Util.Prng.create 5) in
  ignore (Loader.import_relation ~dir ~page_rows:8 rel);
  let path = Paged.pages_path dir "T" in
  let size = (Unix.stat path).Unix.st_size in
  (* flip one byte mid-file: verify must fail with an offset inside it *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let pos = size / 2 in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let p = Paged.openr ~cache_pages:2 ~dir "T" in
  (try
     ignore (Paged.verify p);
     Alcotest.fail "corrupt pages file accepted"
   with Codec.Decode_error { offset; reason } ->
     Alcotest.(check bool) "located in file" true (offset >= 0 && offset <= size);
     Alcotest.(check bool) "reason" true (reason <> ""));
  Paged.close p;
  (* torn tail: truncating the pages file must also be caught *)
  Unix.truncate path (size - 3);
  let p = Paged.openr ~cache_pages:2 ~dir "T" in
  (try
     ignore (Paged.verify p);
     Alcotest.fail "torn pages file accepted"
   with Codec.Decode_error _ | End_of_file -> ());
  Paged.close p;
  (* and a corrupt meta directory is rejected at open *)
  let meta = Paged.meta_path dir "T" in
  let ic = open_in_bin meta in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let d = Bytes.of_string contents in
  Bytes.set d (Bytes.length d / 2)
    (Char.chr (Char.code (Bytes.get d (Bytes.length d / 2)) lxor 4));
  let oc = open_out_bin meta in
  output_bytes oc d;
  close_out oc;
  try
    ignore (Paged.openr ~dir "T");
    Alcotest.fail "corrupt meta accepted"
  with Codec.Decode_error { reason; _ } ->
    Alcotest.(check bool) "meta reason" true (reason <> "")

(* --------------------------------------------------- engine differential *)

(* The fig3 covariance batch over paged streams, with the cache budget
   shrunk to 2 pages so the scan evicts constantly: the engine must be
   bitwise equal to its in-memory run, and the eviction/read counters must
   prove the out-of-core path was actually exercised. *)
let test_engine_differential () =
  let db = Datagen.Retailer.generate ~scale:0.02 ~seed:7 () in
  let batch = Aggregates.Batch.covariance Datagen.Retailer.features in
  let r_mem = Lmfao.Engine.eval_batch db batch in
  Scenario.with_temp_dir @@ fun dir ->
  Obs.with_enabled true @@ fun () ->
  Obs.reset ();
  let paged =
    List.map
      (fun rel ->
        ignore (Loader.import_relation ~dir ~page_rows:64 rel);
        Paged.openr ~cache_pages:2 ~dir (Relation.name rel))
      (Database.relations db)
  in
  let sdb =
    Database.create_streamed "retailer_paged"
      (List.map (fun p -> (Paged.stub p, Some (Paged.stream p))) paged)
  in
  let r_paged = Lmfao.Engine.eval_batch sdb batch in
  Alcotest.(check bool) "lmfao paged == in-memory" true
    (Aggregates.Spec.keyed_bits_equal r_mem r_paged);
  (* parallel options leave streamed scans sequential, one reader per
     paged relation at a time: the same bits *)
  let parallel = { Lmfao.Engine.default_options with parallel = true; chunk_threshold = 1 } in
  Alcotest.(check bool) "lmfao paged, parallel options == in-memory" true
    (Aggregates.Spec.keyed_bits_equal r_mem (Lmfao.Engine.eval_batch ~options:parallel sdb batch));
  Alcotest.(check bool) "pages were read" true
    (Obs.counter_value_by_name "store.page_reads" > 0);
  Alcotest.(check bool) "the 2-page cache thrashed" true
    (Obs.counter_value_by_name "store.evictions" > 0);
  List.iter Paged.close paged;
  Obs.reset ()

(* The merged edge over pages: retailer at scale 0.5 imported into 256-row
   pages read through a 2-page cache. Covariance and k-means must equal
   the in-memory runs bit for bit, with the Weather/Inventory step run by
   key blocks; and with only Weather, then only Inventory, on pages, each
   batch reads each of that relation's pages once: a block keeps N's
   decoded chunks for its down scan, and C is scanned once. *)
let test_merged_edge_pages () =
  let db = Datagen.Retailer.generate ~scale:0.5 ~seed:7 () in
  let rf = Datagen.Retailer.features in
  Scenario.with_temp_dir @@ fun dir ->
  let paged =
    List.map
      (fun rel ->
        ignore (Loader.import_relation ~dir ~page_rows:256 rel);
        Paged.openr ~cache_pages:2 ~dir (Relation.name rel))
      (Database.relations db)
  in
  let on_pages keep =
    Database.create_streamed "retailer_paged"
      (List.map2
         (fun rel p -> if keep (Relation.name rel) then (Paged.stub p, Some (Paged.stream p)) else (rel, None))
         (Database.relations db) paged)
  in
  let run sdb batch =
    Obs.reset ();
    let r = Obs.with_enabled true (fun () -> Lmfao.Engine.eval_batch sdb batch) in
    let c = Obs.counter_value_by_name in
    (r, c "lmfao.merge_blocks", c "lmfao.merge_fallbacks", c "store.page_reads")
  in
  List.iter
    (fun (batch : Aggregates.Batch.t) ->
      let what = batch.Aggregates.Batch.name in
      let r_mem = Lmfao.Engine.eval_batch db batch in
      let r, blocks, fallbacks, _ = run (on_pages (fun _ -> true)) batch in
      Alcotest.(check bool) (what ^ ": paged == in-memory") true (Aggregates.Spec.keyed_bits_equal r_mem r);
      Alcotest.(check bool) (Printf.sprintf "%s: by %d key blocks" what blocks) true
        (blocks >= 2 && fallbacks = 0);
      List.iter
        (fun p ->
          let name = Paged.name p in
          if name = "Weather" || name = "Inventory" then begin
            let r, _, _, reads = run (on_pages (( = ) name)) batch in
            Alcotest.(check bool) (what ^ ", " ^ name ^ " paged == in-memory") true
              (Aggregates.Spec.keyed_bits_equal r_mem r);
            Alcotest.(check int) (what ^ ": " ^ name ^ "'s pages read once") (Paged.pages p) reads
          end)
        paged)
    [ Aggregates.Batch.covariance rf; Aggregates.Batch.kmeans rf ];
  List.iter Paged.close paged;
  (* Weather's last two rows swapped: the streamed check meets the step
     back in the last block, drops the blocks run so far and runs the step
     as one block, as the resident copy does from the start *)
  let rels =
    List.map (fun r -> Relation.create (Relation.name r) (Relation.schema r)) (Database.relations db)
  in
  let swapped = Database.create "retailer-swapped" rels in
  List.iter2
    (fun src dst ->
      let n = Relation.cardinality src in
      for i = 0 to n - 1 do
        Relation.append_from dst src
          (if Relation.name src = "Weather" && i >= n - 2 then (2 * n) - 3 - i else i)
      done)
    (Database.relations db) rels;
  let sub = Filename.concat dir "swapped" in
  Sys.mkdir sub 0o755;
  let weather = Database.relation swapped "Weather" in
  ignore (Loader.import_relation ~dir:sub ~page_rows:256 weather);
  let p = Paged.openr ~cache_pages:2 ~dir:sub "Weather" in
  let sdb =
    Database.create_streamed "retailer-swapped-paged"
      (List.map
         (fun r -> if r == weather then (Paged.stub p, Some (Paged.stream p)) else (r, None))
         (Database.relations swapped))
  in
  let batch = Aggregates.Batch.covariance rf in
  let r_mem = Lmfao.Engine.eval_batch swapped batch in
  let r, blocks, fallbacks, _ = run sdb batch in
  Alcotest.(check bool) "late step back: paged == in-memory" true (Aggregates.Spec.keyed_bits_equal r_mem r);
  Alcotest.(check bool) (Printf.sprintf "late step back: %d blocks, then one" blocks) true
    (blocks >= 2 && fallbacks = 1 && Obs.counter_value_by_name "lmfao.merge_fallbacks.order" = 1);
  Paged.close p;
  Obs.reset ()

(* ---------------------------------------------------- F-IVM differential *)

(* The star workload on the dyadic lattice ([Datagen.Stream_gen]): exact
   payload arithmetic makes every covariance accumulation order-independent
   down to the last bit, so base-loading the stream's LIVE SET from
   per-shard page directories must reproduce the directly-maintained triple
   exactly. *)
let features = Sg.star_features
let strategies = [ M.F_ivm; M.Higher_order; M.First_order ]

(* The stream plus its live multiset (inserts not yet deleted), the latter
   materialised as relations in insertion order. *)
let lattice_stream_and_live ~seed ~steps =
  let gen = Sg.star_gen () in
  let updates = Sg.star_updates gen (Util.Prng.create seed) steps in
  let db = Sg.star_database () in
  List.iter
    (fun u ->
      Relation.append (Database.relation db u.Delta.relation) u.Delta.tuple)
    (Sg.star_live gen);
  (updates, db)

let fivm_load_base_bit_identical strategy =
  QCheck2.Test.make ~count:12
    ~name:
      (Printf.sprintf "F-IVM base-load from shard pages is bit-identical (%s)"
         (M.strategy_name strategy))
    QCheck2.Gen.int
    (fun seed ->
      let updates, live = lattice_stream_and_live ~seed ~steps:240 in
      let m = M.create strategy (Sg.star_database ()) ~features in
      List.iter (M.apply m) updates;
      let direct = M.covariance m in
      Scenario.with_temp_dir @@ fun dir ->
      let shards = 3 in
      (* keyed relations (carrying "a") split into per-shard directories
         with the SAME routing rule Shard uses; D2 is broadcast *)
      ignore
        (Loader.import_sharded ~dir ~page_rows:8 ~shards ~key:[ "a" ]
           (Database.relation live "F"));
      ignore
        (Loader.import_sharded ~dir ~page_rows:8 ~shards ~key:[ "a" ]
           (Database.relation live "D1"));
      ignore
        (Loader.import_relation ~dir ~page_rows:8 (Database.relation live "D2"));
      let sh = Shard.create ~attr:"a" strategy (Sg.star_database ()) ~features ~shards in
      let opened = ref [] in
      let keep p =
        opened := p :: !opened;
        p
      in
      let keyed name k =
        keep (Loader.open_shard ~cache_pages:2 ~dir name k)
      in
      (* each shard task gets its OWN reader handle (readers are not shared
         across domains), with a 2-page cache to force eviction mid-load *)
      Shard.load_base sh ~relation:"F" (fun k emit ->
          Paged.iter_chunks (keyed "F" k) emit);
      Shard.load_base sh ~relation:"D1" (fun k emit ->
          Paged.iter_chunks (keyed "D1" k) emit);
      Shard.load_base sh ~relation:"D2" (fun _ emit ->
          Paged.iter_chunks (keep (Paged.openr ~cache_pages:2 ~dir "D2")) emit);
      let loaded = Shard.covariance sh in
      List.iter Paged.close !opened;
      Cov.equal_bits direct loaded)

(* ---------------------------------------------------- spill-op properties *)

let random_keyed_relation rng rows =
  let rel =
    Relation.create "R"
      (Schema.make
         [ ("k", Value.TInt); ("g", Value.TInt); ("m", Value.TFloat) ])
  in
  for _ = 1 to rows do
    Relation.append rel
      [|
        int (Util.Prng.int rng 7);
        int (Util.Prng.int rng 5);
        flt (Util.Prng.float rng 100.0);
      |]
  done;
  rel

let sorted_tuples rel =
  List.sort compare
    (List.init (Relation.cardinality rel) (fun i ->
         Array.to_list (Relation.get rel i)))

let spill_group_by_invariant =
  QCheck2.Test.make ~count:40
    ~name:"group-by is bitwise threshold- and budget-invariant"
    QCheck2.Gen.(pair (int_range 0 300) int)
    (fun (rows, seed) ->
      let rel = random_keyed_relation (Util.Prng.create seed) rows in
      let schema = Relation.schema rel in
      let aggs =
        [
          ("n", Ops.Count);
          ("sum_m", Ops.sum_of_attr schema "m");
          ("min_m", Ops.Min (fun t -> Value.to_float t.(2)));
          ("avg_m", Ops.Avg (fun t -> Value.to_float t.(2)));
        ]
      in
      let run spill_above =
        Ops.group_by_spill rel ~key:[ "k"; "g" ] ~aggs ~spill_above
      in
      (* thresholds: 0 = everything spills, 8 = one-page-equivalent, and
         max_int = never spills; each under inline and 4-domain budgets *)
      let results =
        List.concat_map
          (fun b ->
            with_worker_budget b (fun () -> List.map run [ 0; 8; max_int ]))
          budgets
      in
      let first = List.hd results in
      List.for_all (rel_bit_identical first) results
      (* and the contents agree with the unbounded group_by (whose emission
         order is hash order, so compare as sorted multisets) *)
      && sorted_tuples first
         = sorted_tuples (Ops.group_by rel ~key:[ "k"; "g" ] ~aggs))

let spill_join_invariant =
  QCheck2.Test.make ~count:40
    ~name:"join is bitwise identical at every spill threshold"
    QCheck2.Gen.(pair (pair (int_range 0 150) (int_range 0 150)) int)
    (fun ((na, nb), seed) ->
      let rng = Util.Prng.create seed in
      let a =
        Relation.create "A"
          (Schema.make [ ("k", Value.TInt); ("u", Value.TFloat) ])
      in
      for _ = 1 to na do
        Relation.append a [| int (Util.Prng.int rng 9); flt (Util.Prng.float rng 10.0) |]
      done;
      let b =
        Relation.create "B"
          (Schema.make [ ("k", Value.TInt); ("v", Value.TFloat) ])
      in
      for _ = 1 to nb do
        Relation.append b [| int (Util.Prng.int rng 9); flt (Util.Prng.float rng 10.0) |]
      done;
      let reference = Ops.natural_join a b in
      List.for_all
        (fun budget ->
          with_worker_budget budget @@ fun () ->
          List.for_all
            (fun spill_above ->
              rel_bit_identical reference
                (Ops.natural_join_spill a b ~spill_above))
            [ 0; 8; max_int ])
        budgets)

let test_spill_counters_move () =
  Obs.with_enabled true @@ fun () ->
  Obs.reset ();
  let rel = random_keyed_relation (Util.Prng.create 11) 200 in
  let aggs = [ ("n", Ops.Count) ] in
  (* unbounded arm: no spill traffic at all *)
  ignore (Ops.group_by_spill rel ~key:[ "k" ] ~aggs ~spill_above:max_int);
  Alcotest.(check int) "no spills below threshold" 0
    (Obs.counter_value_by_name "store.spills");
  (* forced arm: every row goes through the disk partitions *)
  ignore (Ops.group_by_spill rel ~key:[ "k" ] ~aggs ~spill_above:0);
  ignore (Ops.natural_join_spill rel rel ~spill_above:0);
  Alcotest.(check bool) "spills counted" true
    (Obs.counter_value_by_name "store.spills" > 0);
  Alcotest.(check bool) "spilled rows counted" true
    (Obs.counter_value_by_name "store.spill_rows" >= 200);
  Obs.reset ()

(* ---- suite ---- *)

let () =
  Alcotest.run "store"
    [
      ( "page-codec",
        [
          qcheck page_roundtrip;
          qcheck page_slice_roundtrip;
          qcheck page_rejects_torn_tail;
          qcheck page_rejects_flips;
          Alcotest.test_case "decode errors at their true offsets" `Quick
            test_decode_errors_at_true_offsets;
          Alcotest.test_case "decode allocation is bounded" `Quick
            test_decode_allocation_bounded;
          Alcotest.test_case "format is pinned" `Quick test_format_pinned;
        ] );
      ( "paged-files",
        [
          Alcotest.test_case "boundary row counts round-trip" `Quick
            test_paged_boundary_sizes;
          qcheck paged_roundtrip_any_budget;
          Alcotest.test_case "corruption is rejected with located errors"
            `Quick test_file_corruption_located;
          Alcotest.test_case "a held chunk survives buffer reuse" `Quick
            test_held_chunk_survives_buffer_reuse;
          Alcotest.test_case "a leased chunk survives page recycling" `Quick
            test_leased_chunk_survives_recycling;
          Alcotest.test_case "released pages lend their arrays" `Quick
            test_released_pages_recycled;
        ] );
      ( "engine-differential",
        [
          Alcotest.test_case "paged == in-memory through both engines" `Quick
            test_engine_differential;
          Alcotest.test_case "merged edge over pages: bits and one read per page" `Quick
            test_merged_edge_pages;
        ] );
      ( "fivm-differential",
        List.map (fun s -> qcheck (fivm_load_base_bit_identical s)) strategies );
      ( "spill-ops",
        [
          qcheck spill_group_by_invariant;
          qcheck spill_join_invariant;
          Alcotest.test_case "spill counters move only when forced" `Quick
            test_spill_counters_move;
        ] );
    ]
