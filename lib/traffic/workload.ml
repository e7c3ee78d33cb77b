(* Open-loop workload generation.

   The arrival process is OPEN-LOOP: request instants are drawn from Poisson
   processes fixed in advance, independent of how fast the server answers.
   A closed-loop generator (issue, wait, issue) silently slows down exactly
   when the server struggles — the coordinated-omission trap — and can never
   show overload. Here overload is a property of the event list itself.

   Two independent Poisson streams are merged on the virtual timeline:

   - READS at [read_rate]/s. Which batch a read asks for is Zipf-skewed over
     the catalog (rank 1 = hottest), which tenant issues it is Zipf-skewed
     over the tenant population — both mirror production traffic, where a
     few dashboards and a few tenants dominate.
   - DELTAS at [delta_rate]/s, each carrying [delta_batch] updates from the
     caller-supplied generator (which is where inserts/deletes and value
     distributions live — the harness uses the dyadic-lattice stream so the
     shed-path differential can demand bit equality).

   Everything is drawn from one seeded [Util.Prng], split per stream:
   identical specs generate identical event lists on every machine. *)

type event =
  | Read of { at : float; tenant : int; batch : int }
  | Delta of { at : float; updates : Fivm.Delta.update list }

let at = function Read { at; _ } -> at | Delta { at; _ } -> at

type spec = {
  seed : int;
  duration : float;
  read_rate : float;
  delta_rate : float;
  delta_batch : int;
  tenants : int;
  batch_skew : float;
  tenant_skew : float;
}

let spec ?(seed = 0) ?(duration = 1.0) ?(read_rate = 100.0)
    ?(delta_rate = 10.0) ?(delta_batch = 8) ?(tenants = 4)
    ?(batch_skew = 1.1) ?(tenant_skew = 1.1) () =
  if duration <= 0.0 then invalid_arg "Workload.spec: duration <= 0";
  if read_rate < 0.0 || delta_rate < 0.0 then
    invalid_arg "Workload.spec: negative rate";
  if tenants < 1 then invalid_arg "Workload.spec: tenants < 1";
  if delta_batch < 1 then invalid_arg "Workload.spec: delta_batch < 1";
  { seed; duration; read_rate; delta_rate; delta_batch; tenants;
    batch_skew; tenant_skew }

(* Poisson arrivals: exponential interarrival gaps via inverse CDF. *)
let arrivals prng ~rate ~duration =
  if rate <= 0.0 then []
  else begin
    let out = ref [] in
    let t = ref 0.0 in
    let continue = ref true in
    while !continue do
      let u = Float.max 1e-12 (Util.Prng.float prng 1.0) in
      t := !t -. (log u /. rate);
      if !t < duration then out := !t :: !out else continue := false
    done;
    List.rev !out
  end

let generate s ~catalog ~make_updates =
  if catalog < 1 then invalid_arg "Workload.generate: empty catalog";
  let root = Util.Prng.create s.seed in
  let read_clock = Util.Prng.split root in
  let read_draw = Util.Prng.split root in
  let delta_clock = Util.Prng.split root in
  let delta_draw = Util.Prng.split root in
  let tenants = Util.Prng.zipf_sampler ~n:s.tenants ~s:s.tenant_skew
  and batches = Util.Prng.zipf_sampler ~n:catalog ~s:s.batch_skew in
  let reads =
    List.map
      (fun at ->
        Read
          {
            at;
            tenant = Util.Prng.zipf read_draw tenants - 1;
            batch = Util.Prng.zipf read_draw batches - 1;
          })
      (arrivals read_clock ~rate:s.read_rate ~duration:s.duration)
  in
  let deltas =
    List.map
      (fun at -> Delta { at; updates = make_updates delta_draw s.delta_batch })
      (arrivals delta_clock ~rate:s.delta_rate ~duration:s.duration)
  in
  (* stable merge by arrival instant; ties keep reads before deltas, which
     is irrelevant to correctness (the driver imposes its own barriers) but
     keeps the order deterministic *)
  List.stable_sort (fun a b -> Float.compare (at a) (at b)) (reads @ deltas)
