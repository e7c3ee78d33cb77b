(* Paged on-disk relations: a relation is a `<name>.pages` file — the
   concatenation of CRC-framed pages ([Page]) — plus a `<name>.meta` file
   holding the schema, row counts and the page directory (byte offset,
   byte length and row count per page):

     meta    := magic "BSTM1" , Codec.frame(payload)
     payload := name , ncols u32 , (attr name , ty u8)* ,
                rows i64 , page_rows i64 , npages i64 ,
                (offset i64 , bytes i64 , rows i64)*

   The meta file is written to a [.tmp] sibling and renamed into place, so
   a crash mid-import never leaves a readable-but-wrong directory; and
   since the directory is itself one checksummed frame, a torn or corrupt
   meta reads as "no relation" with a located error.

   A reader handle reads each page into one buffer of its own and decodes
   it on demand through a bounded [Cache]; scans touch one page at a time
   in directory order, so a full-relation scan holds at most [cache_pages]
   decoded pages resident no matter the relation's cardinality — that is
   the out-of-core property the bench gauges verify.

   Decoded pages are leased. A page counts its holders: the cache while it
   keeps the page, each chunk [stream] hands out until its reader releases
   it, and, forever, each chunk [chunk] hands out. A full page no holder is
   left on becomes spare (at most [cache_pages] of them), and the next full
   page the cache misses is decoded into a spare's Ints and Floats arrays
   ([Page.decode ?into]) instead of fresh ones, so a streamed scan stops
   allocating a page's worth of major heap per page. Pages read by [chunk],
   [iter_chunks], [to_relation] or [verify], and short last pages, are
   never recycled. *)

module Codec = Relational.Codec
module Schema = Relational.Schema
module Relation = Relational.Relation
module Column = Relational.Column
module Value = Relational.Value

let pages_written = Obs.counter "store.pages_written"
let meta_magic = "BSTM1"
let default_page_rows = 4096
let default_cache_pages = 64

let pages_path dir name = Filename.concat dir (name ^ ".pages")
let meta_path dir name = Filename.concat dir (name ^ ".meta")

let ty_tag = function Value.TInt -> 0 | Value.TFloat -> 1 | Value.TStr -> 2

let ty_of_tag rd = function
  | 0 -> Value.TInt
  | 1 -> Value.TFloat
  | 2 -> Value.TStr
  | tag -> Codec.fail_at rd (Printf.sprintf "bad type tag %d" tag)

(* ---- meta ---- *)

let write_meta ~dir ~name ~schema ~rows ~page_rows directory =
  let payload = Buffer.create 256 in
  Codec.str payload name;
  let attrs = Schema.attrs schema in
  Codec.u32 payload (List.length attrs);
  List.iter
    (fun (a : Schema.attr) ->
      Codec.str payload a.name;
      Codec.u8 payload (ty_tag a.ty))
    attrs;
  Codec.i64 payload rows;
  Codec.i64 payload page_rows;
  Codec.i64 payload (Array.length directory);
  Array.iter
    (fun (offset, bytes, prows) ->
      Codec.i64 payload offset;
      Codec.i64 payload bytes;
      Codec.i64 payload prows)
    directory;
  let b = Buffer.create (Buffer.length payload + 16) in
  Buffer.add_string b meta_magic;
  Codec.frame b (Buffer.contents payload);
  let path = meta_path dir name in
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc (Buffer.contents b));
  Sys.rename tmp path

let read_meta ~dir name =
  let s = In_channel.with_open_bin (meta_path dir name) In_channel.input_all in
  let mlen = String.length meta_magic in
  if String.length s < mlen || String.sub s 0 mlen <> meta_magic then
    Codec.fail ~offset:0 "bad meta magic";
  let rd = Codec.read_frame (Codec.reader ~pos:mlen s) in
  let stored_name = Codec.read_str rd in
  let ncols = Codec.read_u32 rd in
  let attrs =
    List.init ncols (fun _ ->
        let n = Codec.read_str rd in
        let ty = ty_of_tag rd (Codec.read_u8 rd) in
        Schema.attr n ty)
  in
  let rows = Codec.read_i64 rd in
  let page_rows = Codec.read_i64 rd in
  let npages = Codec.read_i64 rd in
  let directory =
    Array.init npages (fun _ ->
        let offset = Codec.read_i64 rd in
        let bytes = Codec.read_i64 rd in
        let prows = Codec.read_i64 rd in
        (offset, bytes, prows))
  in
  (stored_name, Schema.of_list attrs, rows, page_rows, directory)

(* ---- writer ---- *)

type writer = {
  w_dir : string;
  w_name : string;
  w_schema : Schema.t;
  w_page_rows : int;
  w_oc : Out_channel.t;
  w_tmp : string;
  mutable w_buf : Relation.t;
  mutable w_entries : (int * int * int) list; (* newest first *)
  mutable w_offset : int;
  mutable w_rows : int;
  mutable w_pages : int;
}

let writer ~dir ?(page_rows = default_page_rows) name schema =
  let tmp = pages_path dir name ^ ".tmp" in
  {
    w_dir = dir;
    w_name = name;
    w_schema = schema;
    w_page_rows = page_rows;
    w_oc = Out_channel.open_bin tmp;
    w_tmp = tmp;
    w_buf = Relation.create ~capacity:page_rows name schema;
    w_entries = [];
    w_offset = 0;
    w_rows = 0;
    w_pages = 0;
  }

let write_page w encoded rows =
  Obs.incr pages_written;
  Out_channel.output_string w.w_oc encoded;
  w.w_entries <- (w.w_offset, String.length encoded, rows) :: w.w_entries;
  w.w_offset <- w.w_offset + String.length encoded;
  w.w_rows <- w.w_rows + rows;
  w.w_pages <- w.w_pages + 1

let flush_buf w =
  let rows = Relation.cardinality w.w_buf in
  if rows > 0 then begin
    write_page w (Page.encode ~index:w.w_pages w.w_buf ~lo:0 ~rows) rows;
    w.w_buf <- Relation.create ~capacity:w.w_page_rows w.w_name w.w_schema
  end

let append_row w src i =
  Relation.append_from w.w_buf src i;
  if Relation.cardinality w.w_buf >= w.w_page_rows then flush_buf w

let append_chunk w chunk =
  for i = 0 to Relation.cardinality chunk - 1 do
    append_row w chunk i
  done

let append_encoded w encoded ~rows = write_page w encoded rows

let close_writer w =
  flush_buf w;
  Out_channel.close w.w_oc;
  Sys.rename w.w_tmp (pages_path w.w_dir w.w_name);
  write_meta ~dir:w.w_dir ~name:w.w_name ~schema:w.w_schema ~rows:w.w_rows
    ~page_rows:w.w_page_rows
    (Array.of_list (List.rev w.w_entries));
  w.w_rows

(* ---- reader ---- *)

(* A decoded page and the count of its holders: the cache while it keeps
   the page, each chunk [stream] leases until it is released, and forever
   each chunk [chunk] hands out. *)
type entry = { page : Page.t; mutable holders : int }

type t = {
  dir : string;
  name : string;
  schema : Schema.t;
  rows : int;
  page_rows : int;
  directory : (int * int * int) array;
  ic : In_channel.t;
  cache : entry Cache.t;
  buf : Bytes.t; (* the largest page: every read lands here *)
  spare : Page.t Stack.t; (* full pages no one holds: the next decodes' arrays *)
  mutable leased : (Relation.t * entry) list; (* unreleased [stream] chunks *)
}

(* A holder lets go of [e]. A full page no one holds becomes spare while
   fewer than [keep] (the cache's budget) are, so that an idle handle keeps
   at most twice its budget. *)
let drop spare ~keep ~page_rows e =
  e.holders <- e.holders - 1;
  if e.holders = 0 && e.page.Page.rows = page_rows && Stack.length spare < keep then
    Stack.push e.page spare

let openr ?(cache_pages = default_cache_pages) ~dir name =
  let stored_name, schema, rows, page_rows, directory = read_meta ~dir name in
  if stored_name <> name then
    Codec.fail (Printf.sprintf "meta names %s, expected %s" stored_name name);
  let spare = Stack.create () and keep = Stdlib.max 1 cache_pages in
  {
    dir;
    name;
    schema;
    rows;
    page_rows;
    directory;
    ic = In_channel.open_bin (pages_path dir name);
    cache = Cache.create ~budget:keep ~on_evict:(drop spare ~keep ~page_rows);
    buf = Bytes.create (Array.fold_left (fun m (_, bytes, _) -> Stdlib.max m bytes) 0 directory);
    spare;
    leased = [];
  }

let name t = t.name
let schema t = t.schema
let rows t = t.rows
let page_rows t = t.page_rows
let pages t = Array.length t.directory
let close t = In_channel.close t.ic

(* Each page is read into the handle's one buffer and decoded from there;
   the decoded page copies every cell out, so the next read may overwrite
   the buffer. A handle is single-reader, as its channel and cache are. *)
let load_page ?into t i =
  let offset, bytes, prows = t.directory.(i) in
  In_channel.seek t.ic (Int64.of_int offset);
  if In_channel.really_input t.ic t.buf 0 bytes = None then
    Codec.fail ~offset (Printf.sprintf "torn page %d: short read" i);
  let page = Page.decode ~at:offset ~len:bytes ?into (Bytes.unsafe_to_string t.buf) in
  if page.Page.index <> i then
    Codec.fail ~offset (Printf.sprintf "page %d holds index %d" i page.Page.index);
  if page.Page.rows <> prows then
    Codec.fail ~offset
      (Printf.sprintf "page %d holds %d rows, directory says %d" i page.Page.rows prows);
  page

(* Page [i] with one more holder. A full page missing from the cache is
   decoded over a spare one's arrays when there is one. *)
let hold t i =
  let load i =
    let _, _, prows = t.directory.(i) in
    let into = if prows = t.page_rows then Stack.pop_opt t.spare else None in
    { page = load_page ?into t i; holders = 1 }
  in
  let e = Cache.find t.cache i ~load in
  e.holders <- e.holders + 1;
  e

let chunk t i = Page.to_relation t.name t.schema (hold t i).page

let iter_chunks t f =
  for i = 0 to pages t - 1 do
    f (chunk t i)
  done

let lease t i =
  let e = hold t i in
  let c = Page.to_relation t.name t.schema e.page in
  t.leased <- (c, e) :: t.leased;
  c

let release t c =
  let rec remove = function
    | [] -> invalid_arg (Printf.sprintf "Paged.release: a chunk of %s not leased" t.name)
    | (c', e) :: rest when c' == c ->
        drop t.spare ~keep:(Cache.budget t.cache) ~page_rows:t.page_rows e;
        rest
    | lease :: rest -> lease :: remove rest
  in
  t.leased <- remove t.leased

let stream t : Relational.Database.chunks =
  { seq = Seq.init (pages t) (lease t); release = release t }

(* A stub relation for planners: true name, schema and cardinality, but
   capacity-1 columns holding no data. Engines that cost, order or group by
   cardinality work unchanged; any actual cell read is a bug (the stream
   must be scanned instead). *)
let stub t =
  let cols =
    Array.of_list (List.map (fun (a : Schema.attr) -> Column.create a.ty 1) (Schema.attrs t.schema))
  in
  Relation.of_columns t.name t.schema cols t.rows

(* Decode every page and cross-check the directory; returns (pages, rows)
   on success, raises a located [Codec.Decode_error] on any damage. *)
let verify t =
  let total = ref 0 in
  for i = 0 to pages t - 1 do
    let p = load_page t i in
    total := !total + p.Page.rows
  done;
  if !total <> t.rows then
    Codec.fail (Printf.sprintf "pages hold %d rows, meta says %d" !total t.rows);
  (pages t, t.rows)

(* Materialise the whole paged relation in memory (small relations, tests). *)
let to_relation t =
  let out = Relation.create ~capacity:(Stdlib.max 1 t.rows) t.name t.schema in
  iter_chunks t (fun c ->
      for i = 0 to Relation.cardinality c - 1 do
        Relation.append_from out c i
      done);
  out
