(* Engine-wide observability: hierarchical spans, a process-global registry
   of named counters / gauges / histograms, a tree reporter and a JSON
   exporter.

   Everything is gated on one [enabled] flag checked first in every hot-path
   operation, so an instrumented engine pays a single load-and-branch per
   event when observability is off. Counters use [Atomic] and spans keep one
   stack per domain, so instrumented code inside [Util.Pool] workers stays
   safe; spans started on a worker domain with an empty stack attach to the
   report root. *)

module Clock = Clock
module Json = Json

(* ---------- enablement ---------- *)

let enabled = ref false
let set_enabled b = enabled := b
let is_enabled () = !enabled

let with_enabled b f =
  let saved = !enabled in
  enabled := b;
  Fun.protect ~finally:(fun () -> enabled := saved) f

(* ---------- registry plumbing ---------- *)

let registry_mutex = Mutex.create ()

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

(* ---------- counters ---------- *)

type counter = { c_name : string; cell : int Atomic.t }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = { c_name = name; cell = Atomic.make 0 } in
          Hashtbl.add counters name c;
          c)

let add c n = if !enabled then ignore (Atomic.fetch_and_add c.cell n)
let incr c = add c 1
let counter_value c = Atomic.get c.cell

let counter_value_by_name name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> counter_value c
      | None -> 0)

(* ---------- gauges ---------- *)

(* Gauges are written from worker domains (e.g. per-shard sizes inside
   [Util.Pool] tasks), so the cell is an [Atomic] — a plain mutable float
   here was a cross-domain data race that histograms (mutex) and counters
   (atomics) never had. *)
type gauge = { g_name : string; g : float Atomic.t }

let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 32

let gauge name =
  locked (fun () ->
      match Hashtbl.find_opt gauges name with
      | Some g -> g
      | None ->
          let g = { g_name = name; g = Atomic.make 0.0 } in
          Hashtbl.add gauges name g;
          g)

let set_gauge g v = if !enabled then Atomic.set g.g v
let gauge_value g = Atomic.get g.g

(* ---------- histograms ----------

   Streaming summaries with FIXED log-scaled buckets shared by every
   histogram: bucket 0 is the underflow bin (v <= 1e-9), the last bucket the
   overflow bin, and in between each decade of [1e-9, 1e6] is split into
   [buckets_per_decade] geometric bins. A fixed layout means snapshots from
   different processes (metrics files, bench runs) aggregate and compare
   without negotiation, and quantile estimation is a cumulative walk plus a
   linear interpolation inside one bucket — the Prometheus
   [histogram_quantile] recipe. The layout spans nanoseconds to ~11 days,
   enough for every latency/duration this repository observes. *)

let buckets_per_decade = 5
let bucket_lo = 1e-9
let bucket_decades = 15
let bucket_count = 2 + (buckets_per_decade * bucket_decades)

let bucket_upper i =
  if i <= 0 then bucket_lo
  else if i >= bucket_count - 1 then infinity
  else bucket_lo *. (10.0 ** (float_of_int i /. float_of_int buckets_per_decade))

let bucket_index v =
  if not (v > bucket_lo) then 0 (* also catches nan and negatives *)
  else begin
    let raw =
      1
      + int_of_float
          (Float.floor (Float.log10 (v /. bucket_lo) *. float_of_int buckets_per_decade))
    in
    let i = Stdlib.max 1 (Stdlib.min (bucket_count - 1) raw) in
    (* the log is inexact at bucket boundaries; nudge into the invariant
       upper (i-1) < v <= upper i *)
    if v > bucket_upper i then Stdlib.min (bucket_count - 1) (i + 1)
    else if i > 1 && v <= bucket_upper (i - 1) then i - 1
    else i
  end

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array; (* length [bucket_count] *)
}

type histogram_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_min : float; (* infinity when empty *)
  hs_max : float; (* neg_infinity when empty *)
  hs_buckets : (int * int) list; (* (bucket index, count), non-zero, ascending *)
}

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32

let histogram name =
  locked (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
          let h =
            {
              h_name = name;
              h_count = 0;
              h_sum = 0.0;
              h_min = infinity;
              h_max = neg_infinity;
              h_buckets = Array.make bucket_count 0;
            }
          in
          Hashtbl.add histograms name h;
          h)

let observe h v =
  if !enabled then
    locked (fun () ->
        h.h_count <- h.h_count + 1;
        h.h_sum <- h.h_sum +. v;
        if v < h.h_min then h.h_min <- v;
        if v > h.h_max then h.h_max <- v;
        let i = bucket_index v in
        h.h_buckets.(i) <- h.h_buckets.(i) + 1)

let histogram_count h = h.h_count
let histogram_sum h = h.h_sum

let snapshot_of_histogram h =
  (* caller holds the registry lock or accepts a racy-but-consistent-enough
     read; the exported paths go through [histogram_snapshot] below *)
  let buckets = ref [] in
  for i = bucket_count - 1 downto 0 do
    if h.h_buckets.(i) > 0 then buckets := (i, h.h_buckets.(i)) :: !buckets
  done;
  {
    hs_count = h.h_count;
    hs_sum = h.h_sum;
    hs_min = h.h_min;
    hs_max = h.h_max;
    hs_buckets = !buckets;
  }

let histogram_snapshot h = locked (fun () -> snapshot_of_histogram h)

let histogram_snapshot_by_name name =
  locked (fun () ->
      Option.map snapshot_of_histogram (Hashtbl.find_opt histograms name))

(* Prometheus-style estimate: walk the cumulative counts to the bucket
   containing rank [q * count], then interpolate linearly inside it. The
   result is clamped to the observed [min, max], which also grounds the
   open-ended underflow/overflow buckets. *)
let snapshot_quantile s q =
  if s.hs_count = 0 then Float.nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. float_of_int s.hs_count in
    let rec walk before = function
      | [] -> s.hs_max
      | (i, n) :: rest ->
          let cum = float_of_int (before + n) in
          if cum < target && rest <> [] then walk (before + n) rest
          else begin
            let lower = if i = 0 then 0.0 else bucket_upper (i - 1) in
            let upper = bucket_upper i in
            let lower = Float.max lower (Float.min s.hs_min upper) in
            let upper = if Float.is_finite upper then upper else s.hs_max in
            let frac =
              Float.max 0.0 (Float.min 1.0 ((target -. float_of_int before) /. float_of_int n))
            in
            let est = lower +. (frac *. (upper -. lower)) in
            Float.max s.hs_min (Float.min s.hs_max est)
          end
    in
    walk 0 s.hs_buckets
  end

let histogram_quantile h q = snapshot_quantile (histogram_snapshot h) q

let snapshot_to_json s =
  Json.Obj
    (("count", Json.num_int s.hs_count)
     :: ("sum", Json.Num s.hs_sum)
     ::
     (if s.hs_count = 0 then []
      else
        [
          ("min", Json.Num s.hs_min);
          ("max", Json.Num s.hs_max);
          ("p50", Json.Num (snapshot_quantile s 0.5));
          ("p95", Json.Num (snapshot_quantile s 0.95));
          ("p99", Json.Num (snapshot_quantile s 0.99));
          ( "buckets",
            Json.Obj
              (List.map
                 (fun (i, n) -> (string_of_int i, Json.num_int n))
                 s.hs_buckets) );
        ]))

let snapshot_of_json j =
  let int_field name =
    match Json.member name j with
    | Some (Json.Num x) when Float.is_integer x -> Ok (int_of_float x)
    | Some _ -> Error (Printf.sprintf "histogram field %S is not an integer" name)
    | None -> Error (Printf.sprintf "histogram field %S missing" name)
  in
  let float_field name default =
    match Json.member name j with
    | Some (Json.Num x) -> Ok x
    | Some _ -> Error (Printf.sprintf "histogram field %S is not a number" name)
    | None -> Ok default
  in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* count = int_field "count" in
  let* sum = float_field "sum" 0.0 in
  let* mn = float_field "min" infinity in
  let* mx = float_field "max" neg_infinity in
  let* buckets =
    match Json.member "buckets" j with
    | None -> if count = 0 then Ok [] else Error "histogram field \"buckets\" missing"
    | Some (Json.Obj fields) ->
        let rec go acc = function
          | [] -> Ok (List.sort compare (List.rev acc))
          | (k, Json.Num n) :: rest when Float.is_integer n -> (
              match int_of_string_opt k with
              | Some i when i >= 0 && i < bucket_count && int_of_float n > 0 ->
                  go ((i, int_of_float n) :: acc) rest
              | _ -> Error (Printf.sprintf "bad histogram bucket %S" k))
          | (k, _) :: _ -> Error (Printf.sprintf "bad histogram bucket %S" k)
        in
        go [] fields
    | Some _ -> Error "histogram field \"buckets\" is not an object"
  in
  if List.fold_left (fun acc (_, n) -> acc + n) 0 buckets <> count then
    Error "histogram bucket counts do not sum to count"
  else Ok { hs_count = count; hs_sum = sum; hs_min = mn; hs_max = mx; hs_buckets = buckets }

(* ---------- spans ---------- *)

type span = {
  span_name : string;
  start_s : float;
  mutable stop_s : float;
  start_words : float;
  mutable stop_words : float;
  mutable children : span list; (* newest first while open; oldest first once reported *)
}

let span_name s = s.span_name
let span_seconds s = s.stop_s -. s.start_s
let span_minor_words s = s.stop_words -. s.start_words
let span_children s = List.rev s.children

(* ---------- span collection ---------- *)

(* finished top-level spans, oldest first once snapshotted *)
let top_spans : span list ref = ref []

(* one span stack per domain: nesting is a per-domain notion, and workers
   spawned by [Util.Pool] must not interleave with the spawning domain *)
let stacks : (int, span list ref) Hashtbl.t = Hashtbl.create 8

let domain_stack () =
  let id = (Domain.self () :> int) in
  locked (fun () ->
      match Hashtbl.find_opt stacks id with
      | Some st -> st
      | None ->
          let st = ref [] in
          Hashtbl.add stacks id st;
          st)

let with_span name f =
  if not !enabled then f ()
  else begin
    let sp =
      {
        span_name = name;
        start_s = Clock.now ();
        stop_s = 0.0;
        start_words = Gc.minor_words ();
        stop_words = 0.0;
        children = [];
      }
    in
    let stack = domain_stack () in
    stack := sp :: !stack;
    let finish () =
      sp.stop_s <- Clock.now ();
      sp.stop_words <- Gc.minor_words ();
      (match !stack with
      | top :: rest when top == sp -> stack := rest
      | _ -> (* unbalanced exit; drop everything above us *)
          stack := (match List.find_opt (fun s -> s == sp) !stack with
                    | Some _ ->
                        let rec drop = function
                          | s :: rest -> if s == sp then rest else drop rest
                          | [] -> []
                        in
                        drop !stack
                    | None -> !stack));
      (match !stack with
      | parent :: _ -> parent.children <- sp :: parent.children
      | [] -> locked (fun () -> top_spans := sp :: !top_spans))
    in
    Fun.protect ~finally:finish f
  end

let spans () = locked (fun () -> List.rev !top_spans)

(* ---------- reset ---------- *)

(* Zero the VALUES but keep the registered objects: instrumented modules
   hold counter handles created at module initialisation. *)
let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters;
      Hashtbl.iter (fun _ g -> Atomic.set g.g 0.0) gauges;
      Hashtbl.iter
        (fun _ h ->
          h.h_count <- 0;
          h.h_sum <- 0.0;
          h.h_min <- infinity;
          h.h_max <- neg_infinity;
          Array.fill h.h_buckets 0 bucket_count 0)
        histograms;
      top_spans := [];
      Hashtbl.iter (fun _ st -> st := []) stacks)

(* ---------- snapshots ---------- *)

let sorted_bindings tbl =
  let items = locked (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  List.sort (fun (a, _) (b, _) -> compare a b) items

let counter_snapshot () =
  List.filter_map
    (fun (name, c) ->
      let v = counter_value c in
      if v = 0 then None else Some (name, v))
    (sorted_bindings counters)

(* ---------- reporters ---------- *)

let pp_words ppf w =
  if w >= 1e6 then Format.fprintf ppf "%.1fMw" (w /. 1e6)
  else if w >= 1e3 then Format.fprintf ppf "%.1fkw" (w /. 1e3)
  else Format.fprintf ppf "%.0fw" w

let pp_seconds ppf s =
  if s < 1e-6 then Format.fprintf ppf "%.0fns" (s *. 1e9)
  else if s < 1e-3 then Format.fprintf ppf "%.1fus" (s *. 1e6)
  else if s < 1.0 then Format.fprintf ppf "%.2fms" (s *. 1e3)
  else Format.fprintf ppf "%.2fs" s

let rec pp_span_tree indent ppf sp =
  Format.fprintf ppf "%s%s  %a  (%a minor)@," indent sp.span_name pp_seconds
    (span_seconds sp) pp_words (span_minor_words sp);
  List.iter (pp_span_tree (indent ^ "  ") ppf) (span_children sp)

let pp_report ppf () =
  Format.fprintf ppf "@[<v>";
  (match spans () with
  | [] -> ()
  | roots ->
      Format.fprintf ppf "spans:@,";
      List.iter (pp_span_tree "  " ppf) roots);
  (match counter_snapshot () with
  | [] -> ()
  | cs ->
      Format.fprintf ppf "counters:@,";
      List.iter (fun (name, v) -> Format.fprintf ppf "  %-36s %12d@," name v) cs);
  let gs =
    List.filter (fun (_, g) -> gauge_value g <> 0.0) (sorted_bindings gauges)
  in
  if gs <> [] then begin
    Format.fprintf ppf "gauges:@,";
    List.iter (fun (name, g) -> Format.fprintf ppf "  %-36s %12g@," name (gauge_value g)) gs
  end;
  let hs =
    List.filter (fun (_, h) -> h.h_count > 0) (sorted_bindings histograms)
  in
  if hs <> [] then begin
    Format.fprintf ppf "histograms:@,";
    List.iter
      (fun (name, h) ->
        let s = histogram_snapshot h in
        Format.fprintf ppf "  %-36s n=%d sum=%g min=%g max=%g p50=%g p99=%g@,"
          name s.hs_count s.hs_sum s.hs_min s.hs_max
          (snapshot_quantile s 0.5) (snapshot_quantile s 0.99))
      hs
  end;
  Format.fprintf ppf "@]"

(* ---------- JSON export ---------- *)

let rec span_to_json sp =
  Json.Obj
    [
      ("name", Json.Str sp.span_name);
      ("seconds", Json.Num (span_seconds sp));
      ("minor_words", Json.Num (span_minor_words sp));
      ("children", Json.Arr (List.map span_to_json (span_children sp)));
    ]

let to_json () =
  Json.Obj
    [
      ("spans", Json.Arr (List.map span_to_json (spans ())));
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.num_int v)) (counter_snapshot ())) );
      ( "gauges",
        Json.Obj
          (List.filter_map
             (fun (k, g) -> if gauge_value g = 0.0 then None else Some (k, Json.Num (gauge_value g)))
             (sorted_bindings gauges)) );
      ( "histograms",
        Json.Obj
          (List.filter_map
             (fun (k, h) ->
               if h.h_count = 0 then None
               else Some (k, snapshot_to_json (histogram_snapshot h)))
             (sorted_bindings histograms)) );
    ]

let json_string () = Json.to_string (to_json ())

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (json_string ());
      output_char oc '\n')
