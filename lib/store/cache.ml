(* Bounded page cache: at most [budget] decoded pages stay resident; the
   least-recently-used page is evicted when a miss would exceed it. The
   budget is what makes paged scans out-of-core — with a cyclic scan of a
   relation larger than the budget, every page is decoded again each pass,
   and peak residency never exceeds the budget (gauge-verified in CI).

   Recency is a monotone stamp per entry; eviction scans for the minimum.
   Budgets are tens-to-thousands of pages, so the O(budget) evict scan is
   noise next to the page decode it makes room for. *)

let page_reads = Obs.counter "store.page_reads"
let cache_hits = Obs.counter "store.cache_hits"
let evictions = Obs.counter "store.evictions"
let cache_pages = Obs.gauge "store.cache_pages"
let cache_pages_peak = Obs.gauge "store.cache_pages_peak"
let cache_budget = Obs.gauge "store.cache_budget"

type 'a t = {
  budget : int;
  entries : (int, 'a * int ref) Hashtbl.t;
  on_evict : 'a -> unit;
  mutable clock : int;
}

let create ~budget ~on_evict =
  let budget = Stdlib.max 1 budget in
  Obs.set_gauge cache_budget (float_of_int budget);
  { budget; entries = Hashtbl.create (2 * budget); on_evict; clock = 0 }

let budget t = t.budget
let resident t = Hashtbl.length t.entries

let note_resident t =
  let n = float_of_int (Hashtbl.length t.entries) in
  Obs.set_gauge cache_pages n;
  if n > Obs.gauge_value cache_pages_peak then Obs.set_gauge cache_pages_peak n

let evict_lru t =
  let victim = ref (-1) and oldest = ref max_int in
  Hashtbl.iter
    (fun k (_, stamp) -> if !stamp < !oldest then begin
        oldest := !stamp;
        victim := k
      end)
    t.entries;
  if !victim >= 0 then begin
    let v, _ = Hashtbl.find t.entries !victim in
    Hashtbl.remove t.entries !victim;
    Obs.incr evictions;
    t.on_evict v
  end

let find t key ~load =
  t.clock <- t.clock + 1;
  match Hashtbl.find_opt t.entries key with
  | Some (v, stamp) ->
      stamp := t.clock;
      Obs.incr cache_hits;
      v
  | None ->
      Obs.incr page_reads;
      let v = load key in
      if Hashtbl.length t.entries >= t.budget then evict_lru t;
      Hashtbl.replace t.entries key (v, ref t.clock);
      note_resident t;
      v
