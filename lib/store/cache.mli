(** LRU page cache with a bounded page budget. Counters:
    [store.page_reads] (misses → loads), [store.cache_hits],
    [store.evictions]; gauges: [store.cache_pages] (resident),
    [store.cache_pages_peak], [store.cache_budget]. *)

type 'a t

val create : budget:int -> on_evict:('a -> unit) -> 'a t
(** [budget] is clamped to at least 1 page. [on_evict] receives each value
    the cache drops. *)

val budget : 'a t -> int
val resident : 'a t -> int

val find : 'a t -> int -> load:(int -> 'a) -> 'a
(** Return the cached value for [key], loading (and caching, evicting the
    LRU entry if the budget is full) on a miss. *)
