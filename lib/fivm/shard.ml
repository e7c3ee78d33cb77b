(* Sharded, domain-parallel F-IVM maintenance.

   Hash-partitions the delta stream by packed partition key into N shards,
   each a full Maintainer on its own Pool task, and merges per-shard
   covariances in canonical shard order. See shard.mli for the correctness
   argument (each join result is produced by exactly one shard). *)

open Relational
module Cov = Rings.Covariance

let c_routed = Obs.counter "fivm.shard.routed"
let c_broadcast = Obs.counter "fivm.shard.broadcast"
let c_batches = Obs.counter "fivm.shard.batches"
let g_skew = Obs.gauge "fivm.shard.skew"

type route = Keyed of int array | Broadcast

type plan = {
  attr : string;
  nshards : int;
  routes : (string, route) Hashtbl.t;
}

(* Partition attribute: the attribute shared by the most relations keeps
   broadcast traffic (replicated to every shard) to a minimum. Ties go to
   the attribute covering more stored tuples, then lexicographic, so the
   choice is deterministic. *)
let choose_attr db =
  let tally = Hashtbl.create 16 in
  List.iter
    (fun rel ->
      let card = Relation.cardinality rel in
      List.iter
        (fun a ->
          let n, c =
            match Hashtbl.find_opt tally a with Some nc -> nc | None -> (0, 0)
          in
          Hashtbl.replace tally a (n + 1, c + card))
        (Schema.names (Relation.schema rel)))
    (Database.relations db);
  let best =
    Hashtbl.fold
      (fun a (n, c) acc ->
        match acc with
        | Some (a', n', c')
          when n' > n || (n' = n && (c' > c || (c' = c && a' < a))) ->
            Some (a', n', c')
        | _ -> Some (a, n, c))
      tally None
  in
  match best with
  | Some (a, _, _) -> a
  | None -> invalid_arg "Shard.plan: empty database"

let plan ?attr ~shards db =
  if shards < 1 then invalid_arg "Shard.plan: shards must be >= 1";
  let attr = match attr with Some a -> a | None -> choose_attr db in
  let routes = Hashtbl.create 8 in
  let keyed = ref 0 in
  List.iter
    (fun rel ->
      let route =
        match Schema.position_opt (Relation.schema rel) attr with
        | Some p ->
            incr keyed;
            Keyed [| p |]
        | None -> Broadcast
      in
      Hashtbl.replace routes (Relation.name rel) route)
    (Database.relations db);
  if !keyed = 0 then
    invalid_arg ("Shard.plan: attribute " ^ attr ^ " appears in no relation");
  { attr; nshards = shards; routes }

let plan_attr p = p.attr
let plan_shards p = p.nshards

let route_update p (u : Delta.update) =
  match Hashtbl.find_opt p.routes u.relation with
  | Some (Keyed positions) ->
      Obs.incr c_routed;
      Some
        (Keypack.shard_of_key ~shards:p.nshards
           (Keypack.key_of_tuple positions u.tuple))
  | Some Broadcast ->
      Obs.incr c_broadcast;
      None
  | None -> invalid_arg ("Shard.route_update: unknown relation " ^ u.relation)

let partition p updates =
  let queues = Array.make p.nshards [] in
  List.iter
    (fun u ->
      match route_update p u with
      | Some k -> queues.(k) <- u :: queues.(k)
      | None ->
          for k = 0 to p.nshards - 1 do
            queues.(k) <- u :: queues.(k)
          done)
    updates;
  Array.map List.rev queues

type t = {
  plan : plan;
  strategy : Maintainer.strategy;
  maintainers : Maintainer.t array;
  deltas : Obs.counter array;
}

let create ?attr strategy db ~features ~shards =
  let plan = plan ?attr ~shards db in
  let maintainers =
    Array.init shards (fun _ -> Maintainer.create strategy db ~features)
  in
  let deltas =
    Array.init shards (fun k ->
        Obs.counter (Printf.sprintf "fivm.shard.%d.deltas" k))
  in
  { plan; strategy; maintainers; deltas }

let plan_of t = t.plan
let shards t = t.plan.nshards
let strategy_of t = t.strategy
let maintainer t k = t.maintainers.(k)

let apply t u =
  match route_update t.plan u with
  | Some k ->
      Obs.incr t.deltas.(k);
      Maintainer.apply t.maintainers.(k) u
  | None ->
      Array.iteri
        (fun k m ->
          Obs.incr t.deltas.(k);
          Maintainer.apply m u)
        t.maintainers

let apply_batch ?domains t updates =
  Obs.incr c_batches;
  let queues = partition t.plan updates in
  let lens = Array.map List.length queues in
  let total = Array.fold_left ( + ) 0 lens in
  if total > 0 && Obs.is_enabled () then begin
    let mean = float_of_int total /. float_of_int t.plan.nshards in
    let widest = Array.fold_left Stdlib.max 0 lens in
    Obs.set_gauge g_skew (float_of_int widest /. mean)
  end;
  Obs.with_span "fivm.shard.batch" (fun () ->
      (* One task per shard; each task owns its maintainer exclusively, so
         tasks share no mutable state (Obs counters are atomic). *)
      let tasks =
        List.init t.plan.nshards (fun k () ->
            List.iter (Maintainer.apply t.maintainers.(k)) queues.(k);
            Obs.add t.deltas.(k) lens.(k))
      in
      ignore (Util.Pool.parallel_tasks ?domains tasks))

(* Stream a base relation into the shards from per-shard chunk sources
   (e.g. the per-shard page directories of [Store.Loader.import_sharded]):
   shard [k] applies every row of [chunks_of k] as a +1 delta to its own
   maintainer, one parallel task per shard, so each domain's working set is
   its own shard's pages — never the whole relation. The caller routes: a
   keyed relation's shard files must have been split with the SAME
   [Keypack.shard_of_key] rule as [route_update]; a broadcast relation's
   source must replay the full relation for every shard. *)
let load_base ?domains t ~relation chunks_of =
  Obs.with_span "fivm.shard.load_base" (fun () ->
      let tasks =
        List.init t.plan.nshards (fun k () ->
            let m = t.maintainers.(k) in
            let count = ref 0 in
            chunks_of k (fun chunk ->
                for i = 0 to Relation.cardinality chunk - 1 do
                  Maintainer.apply m
                    {
                      Delta.relation;
                      tuple = Relation.get chunk i;
                      multiplicity = 1;
                    };
                  incr count
                done);
            Obs.add t.deltas.(k) !count)
      in
      ignore (Util.Pool.parallel_tasks ?domains tasks))

(* Merge folds FROM a copy of shard 0's triple (not from Cov.zero): ring
   addition with a zero can normalise -0.0 payloads, and starting from
   shard 0 makes the 1-shard pipeline return its maintainer's triple bit
   for bit. *)
let merge parts =
  let acc = Array.copy parts.(0) in
  for k = 1 to Array.length parts - 1 do
    Cov.add_into parts.(k) ~into:acc
  done;
  acc

let covariance t =
  Obs.with_span "fivm.shard.merge" (fun () ->
      merge (Array.map Maintainer.covariance t.maintainers))

let recompute t = merge (Array.map Maintainer.recompute t.maintainers)

let view_rows t =
  Array.fold_left (fun acc m -> acc + Maintainer.view_rows m) 0 t.maintainers
