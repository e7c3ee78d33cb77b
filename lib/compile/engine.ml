(* A fingerprint-keyed cache of LMFAO plans over [Lmfao.Engine]'s two
   stages: [compile] plans a batch into its [Lmfao.Plan.grouped] view
   groups, which name their relations and so pin no data, and [run]
   executes them against the live database.

   Compiled plans are cached globally, keyed by [Batch.fingerprint] — the
   same key [Serve] uses for its result cache — so planning is amortised
   across epochs and delta rounds. A hit also requires the cached batch to
   equal the request: a plan answers under its own batch's ids, so neither
   a fingerprint collision nor a batch that differs only in its ids may
   reuse it. The cache holds at most
   [cache_capacity] plans and evicts the least recently used one, so a
   long-lived server that meets ever new batches (every distinct filter
   is a new fingerprint) keeps it bounded. A cached plan is revalidated against a
   cheap plan signature (schema shape, options, and the multi-root
   assignment, which depends on relation CARDINALITIES and so can drift as
   data changes: every aggregate roots at the smallest relation holding
   one of its attributes); on any mismatch the batch is recompiled. That
   keeps a cached run bit-identical to a fresh [Lmfao.Engine.eval] even
   when deltas have shifted where an aggregate roots. A stream that grows
   only the largest relation moves no root, so its plans are reused.

   Cyclic schemas fall back to [Lmfao.Engine.eval_batch] (which
   materialises the join with the WCOJ engine), counted in
   [lmfao.compile.cyclic]. *)

open Relational
module Plan = Lmfao.Plan
module Spec = Aggregates.Spec
module Batch = Aggregates.Batch

type options = Lmfao.Engine.options

let default_options = Lmfao.Engine.default_options

type compiled = {
  batch : Batch.t; (* the compiled batch; reuse requires an equal one *)
  signature : string; (* plan signature the cache revalidates against *)
  options : options;
  plan : Plan.grouped; (* the batch's scheduled view groups *)
}

let c_cache_hits = Obs.counter "lmfao.compile.cache_hits"
let c_cache_evictions = Obs.counter "lmfao.compile.cache_evictions"
let c_cyclic = Obs.counter "lmfao.compile.cyclic"

(* Everything the compiled plans depend on besides the batch itself: the
   schema shape (relation names, attribute order) and the root
   assignment. Cheap to recompute — no scans, just the join tree and the
   per-aggregate root policy. Raises [Join_tree.Cyclic]. *)
let signature_of (options : options) (db : Database.t) (batch : Batch.t) :
    string =
  let popts =
    {
      Plan.share = options.Lmfao.Engine.share;
      multi_root = options.Lmfao.Engine.multi_root;
    }
  in
  let _jt, groups = Plan.group_by_root popts db batch in
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "share=%b;multi=%b|" options.Lmfao.Engine.share
       options.Lmfao.Engine.multi_root);
  List.iter
    (fun r ->
      Buffer.add_string b (Relation.name r);
      Buffer.add_char b '(';
      List.iter
        (fun a ->
          Buffer.add_string b a;
          Buffer.add_char b ',')
        (Schema.names (Relation.schema r));
      Buffer.add_string b ");")
    (Database.relations db);
  List.iter
    (fun (root, specs) ->
      Buffer.add_string b root;
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int (List.length specs));
      Buffer.add_char b ';')
    groups;
  Buffer.contents b

let compile ?(options = default_options) (db : Database.t) (batch : Batch.t) :
    compiled =
  let plan, _stats = Lmfao.Engine.compile ~options db batch in
  {
    batch;
    signature = signature_of options db batch;
    options;
    plan;
  }

let run (c : compiled) (db : Database.t) : (string * Spec.result) list =
  Lmfao.Engine.run ~options:c.options db c.plan

(* A cached plan may be reused iff the batch (equal, not just its
   fingerprint: a plan's outputs carry the batch's ids), options and plan
   signature all still match. Cyclic schemas never reuse (they never
   compiled). *)
let reusable (c : compiled) ?(options = default_options) (db : Database.t)
    (batch : Batch.t) : bool =
  c.options = options
  && Batch.equal c.batch batch
  &&
  match signature_of options db batch with
  | s -> String.equal c.signature s
  | exception Join_tree.Cyclic -> false

(* ---------- the global plan cache ---------- *)

let cache_capacity = 64

(* Each plan with the tick of its last use; a full cache evicts the
   smallest tick, found by a scan of at most [cache_capacity] entries. *)
let cache : (int, compiled * int ref) Hashtbl.t = Hashtbl.create cache_capacity
let tick = ref 0
let cache_lock = Mutex.create ()

let locked f =
  Mutex.lock cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_lock) f

let cache_size () = locked (fun () -> Hashtbl.length cache)

let evict_lru () =
  let oldest =
    Hashtbl.fold
      (fun fp (_, used) acc ->
        match acc with Some (_, u) when u <= !used -> acc | _ -> Some (fp, !used))
      cache None
  in
  Option.iter
    (fun (fp, _) ->
      Hashtbl.remove cache fp;
      Obs.incr c_cache_evictions)
    oldest

let find_or_compile ?(options = default_options) db batch : compiled =
  locked @@ fun () ->
  let fp = Batch.fingerprint batch in
  let signature = signature_of options db batch in
  incr tick;
  match Hashtbl.find_opt cache fp with
  | Some (c, used)
    when c.options = options && Batch.equal c.batch batch && String.equal c.signature signature ->
      Obs.incr c_cache_hits;
      used := !tick;
      c
  | cached ->
      let c = compile ~options db batch in
      if Option.is_none cached && Hashtbl.length cache >= cache_capacity then evict_lru ();
      Hashtbl.replace cache fp (c, ref !tick);
      c

let eval_batch ?(options = default_options) db batch :
    (string * Spec.result) list =
  match find_or_compile ~options db batch with
  | c -> run c db
  | exception Join_tree.Cyclic ->
      Obs.incr c_cyclic;
      Lmfao.Engine.eval_batch ~options db batch
