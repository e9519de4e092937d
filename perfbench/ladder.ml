(* The traced run's layer ladder: the workload's stream is replayed
   through each lower layer's public functions on its own, bottom up, so
   every layer's cost is measured from outside the program. A layer's
   self time is its ladder step minus the steps below it on the same
   stream. Each pass over the ladder is one run id in the span log; a
   value is the median over passes. *)

module W = Workloads
module Cache = Agg_cache.Cache
module Tracker = Agg_successor.Tracker
module Group_builder = Agg_core.Group_builder
module Client_cache = Agg_core.Client_cache
module Plan = Agg_faults.Plan
module Ring = Agg_cluster.Ring

type counts = { mutable attempted : int; mutable failed : int }

let ns_per d count = if count = 0 then 0.0 else Int64.to_float d /. float_of_int count
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* A per-access ladder step: one span for the step, one child span per
   batch of accesses. *)
let per_access tr name a f =
  let (), d = Spans.timed tr name (fun () -> Spans.batched tr (name ^ "/batch") a f) in
  ns_per d (Array.length a)

let new_tracker () =
  Tracker.create ~capacity:W.g5.Agg_core.Config.successor_capacity
    ~policy:W.g5.Agg_core.Config.metadata_policy ()

(* Deterministic counts, taken once per run outside any timed step. *)
type fixed = {
  misses : bool array;  (** per access: a g5 client miss, i.e. a group build *)
  groups_built : int;
  prefetch : Agg_core.Metrics.prefetch;
  victims : (string * float) list;  (** victims per eviction, per rent policy *)
}

let victims_per_eviction_facade cache files =
  let victims = ref 0 and evictions = ref 0 in
  Cache.set_on_evict cache (fun _ -> incr victims);
  Array.iter
    (fun f ->
      let before = !victims in
      ignore (Cache.access cache f);
      if !victims > before then incr evictions)
    files;
  ratio !victims !evictions

let fixed_counts (input : W.input) =
  let spec = input.spec and files = input.files in
  let client = Client_cache.create ~config:W.g5 ~capacity:spec.capacity () in
  let misses = Array.map (fun f -> not (Client_cache.access client f)) files in
  let m = Client_cache.metrics client in
  let weight_of = W.weight_of input and capacity = spec.capacity in
  let bundle_victims = ref 0 and bundle_evictions = ref 0 in
  ignore
    (W.bundle_replay ~weight_of ~capacity files ~on_victims:(fun vs ->
         if vs <> [] then begin
           incr bundle_evictions;
           bundle_victims := !bundle_victims + List.length vs
         end));
  {
    misses;
    groups_built = Array.fold_left (fun n miss -> if miss then n + 1 else n) 0 misses;
    prefetch = m.Agg_core.Metrics.prefetch;
    victims =
      [
        ("landlord", victims_per_eviction_facade (W.landlord_cache ~weight_of ~capacity) files);
        ("greedy_dual", victims_per_eviction_facade (W.greedy_dual_cache ~weight_of ~capacity) files);
        ("bundle", ratio !bundle_victims !bundle_evictions);
      ];
  }

(* One pass over the ladder; returns its metric values and the two
   end-to-end replay times (untraced, traced) in nanoseconds. *)
let pass tr (input : W.input) ~seed ~dir ~fixed ~check ~counts =
  let spec = input.spec and files = input.files and trace = input.trace in
  let n = Array.length files in
  let out = ref [] in
  let add name v = out := (name, v) :: !out in
  let speed_before = Calib.speed () in
  (* workload generator and trace codec *)
  let _, d =
    Spans.timed tr "workload.generate" (fun () ->
        Agg_workload.Generator.generate ~seed ~events:spec.events spec.profile)
  in
  add "workload.generate_ns_per_event" (ns_per d spec.events);
  let trc = Filename.concat dir (Printf.sprintf "ladder-%s-%d.trc" spec.name seed) in
  let (), d = Spans.timed tr "trace.codec.write_file" (fun () -> Agg_trace.Codec.write_file trc trace) in
  add "trace.codec_write_ns_per_event" (ns_per d n);
  let _, d = Spans.timed tr "trace.codec.read_file" (fun () -> Agg_trace.Codec.read_file trc) in
  add "trace.codec_read_ns_per_event" (ns_per d n);
  Sys.remove trc;
  (* the ten classical policies, unit weights *)
  List.iter
    (fun kind ->
      let c = Cache.create kind ~capacity:spec.capacity in
      let name = Printf.sprintf "cache.%s" (Cache.kind_name kind) in
      add (name ^ ".access_ns") (per_access tr name files (fun f -> ignore (Cache.access c f))))
    Cache.all_kinds;
  (* size/cost-aware policies under the workload's weights *)
  let weight_of = W.weight_of input and capacity = spec.capacity in
  let facade name c = add (name ^ ".access_ns") (per_access tr name files (fun f -> ignore (Cache.access c f))) in
  let lru_w = Cache.create ~weight_of Cache.Lru ~capacity in
  add "cache.lru.weighted_access_ns"
    (per_access tr "cache.lru.weighted" files (fun f -> ignore (Cache.access lru_w f)));
  facade "baselines.landlord" (W.landlord_cache ~weight_of ~capacity);
  facade "baselines.greedy_dual" (W.greedy_dual_cache ~weight_of ~capacity);
  let _, d = Spans.timed tr "baselines.bundle" (fun () -> W.bundle_replay ~weight_of ~capacity files) in
  add "baselines.bundle.access_ns" (ns_per d n);
  List.iter (fun (p, v) -> add (Printf.sprintf "baselines.%s.victims_per_eviction" p) v) fixed.victims;
  let cw = Client_cache.create ~config:W.g5 ~weight_of ~capacity () in
  add "core.client_access_weighted_ns"
    (per_access tr "core.client_access_weighted" files (fun f -> ignore (Client_cache.access cw f)));
  (* successor tracker, group builder, aggregating client *)
  let index = Array.init n Fun.id in
  let t = new_tracker () in
  let observe_ns =
    per_access tr "successor.observe" index (fun i -> Tracker.observe t (Array.unsafe_get files i))
  in
  add "successor.observe_ns" observe_ns;
  let t = new_tracker () in
  let group_size = W.g5.Agg_core.Config.group_size in
  let observe_build_ns =
    per_access tr "successor.observe+core.group_build" index (fun i ->
        let f = Array.unsafe_get files i in
        Tracker.observe t f;
        if Array.unsafe_get fixed.misses i then ignore (Group_builder.build t ~group_size f))
  in
  let build_share = (observe_build_ns -. observe_ns) *. float_of_int n in
  add "core.group_build_ns"
    (if fixed.groups_built = 0 then 0.0 else build_share /. float_of_int fixed.groups_built);
  add "core.groups_built" (float_of_int fixed.groups_built);
  let c = Client_cache.create ~config:W.g5 ~capacity () in
  let client_ns = per_access tr "core.client_access" files (fun f -> ignore (Client_cache.access c f)) in
  let lru_ns = List.assoc "cache.lru.access_ns" !out in
  add "core.client_access_ns" client_ns;
  add "core.client_access_self_ns" (client_ns -. observe_build_ns -. lru_ns);
  add "core.prefetch_issued" (float_of_int fixed.prefetch.Agg_core.Metrics.issued);
  add "core.prefetch_useful_ratio"
    (ratio fixed.prefetch.Agg_core.Metrics.used fixed.prefetch.Agg_core.Metrics.issued);
  (* fault plan and ring queries *)
  let plan = Plan.make Plan.default in
  let fired = ref 0 in
  add "faults.plan_query_ns"
    (per_access tr "faults.plan_query" index (fun i ->
         if Plan.server_down plan ~time:i then incr fired;
         if Plan.message_lost plan ~time:i ~attempt:0 then incr fired;
         if Plan.latency_multiplier plan ~time:i ~attempt:0 > 1.0 then incr fired));
  let cluster = W.cluster_config spec in
  let ring = Ring.create ~seed:cluster.Agg_cluster.Cluster.ring_seed ~nodes:cluster.Agg_cluster.Cluster.nodes () in
  let members = ref 0 in
  add "cluster.ring_group_ns"
    (per_access tr "cluster.ring_group" files (fun f ->
         members := !members + List.length (Ring.group ring ~replicas:cluster.Agg_cluster.Cluster.replicas f)));
  (* whole-system simulators *)
  let r, d = Spans.timed tr "cluster.run" (fun () -> Agg_cluster.Cluster.run cluster trace) in
  let acc = r.Agg_cluster.Cluster.accesses in
  add "cluster.ns_per_access" (ns_per d acc);
  add "cluster.failovers_per_access" (ratio r.Agg_cluster.Cluster.failovers acc);
  add "cluster.invalidations_per_access" (ratio r.Agg_cluster.Cluster.invalidations acc);
  add "cluster.degraded_rate" (ratio r.Agg_cluster.Cluster.faults.Agg_faults.Counters.degraded_fetches acc);
  let loads = List.map snd r.Agg_cluster.Cluster.per_node_requests in
  let total = List.fold_left ( + ) 0 loads and busiest = List.fold_left max 0 loads in
  add "cluster.load_imbalance"
    (if total = 0 then 0.0 else float_of_int busiest *. float_of_int (List.length loads) /. float_of_int total);
  let r, d = Spans.timed tr "system.path.run" (fun () -> Agg_system.Path.run (W.path_config spec) trace) in
  let acc = r.Agg_system.Path.accesses in
  let path_ns = ns_per d acc in
  add "system.path_ns_per_access" path_ns;
  add "system.path_self_ns" (path_ns -. client_ns);
  add "system.round_trips_per_access" (ratio r.Agg_system.Path.round_trips acc);
  (* the end-to-end replay, untraced then traced; both are checked *)
  let checked f =
    counts.attempted <- counts.attempted + 1;
    match f () with
    | o -> if check o <> [] then counts.failed <- counts.failed + 1
    | exception _ -> counts.failed <- counts.failed + 1
  in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = Agg_obs.Span.now_ns () in
  let o = W.replay input in
  let untraced = Int64.sub (Agg_obs.Span.now_ns ()) t0 in
  let g1 = Gc.quick_stat () in
  checked (fun () -> o);
  let per_acc x = x /. float_of_int o.W.host_accesses in
  add "gc.minor_words_per_access" (per_acc (g1.Gc.minor_words -. g0.Gc.minor_words));
  add "gc.major_words_per_access" (per_acc (g1.Gc.major_words -. g0.Gc.major_words));
  add "gc.major_collections" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  Gc.full_major ();
  let o, traced = Spans.timed tr "e2e.replay" (fun () -> W.replay ~tr input) in
  checked (fun () -> o);
  add "bench.cpu_speed" ((speed_before +. Calib.speed ()) /. 2.0 /. Calib.reference_speed);
  ignore (!fired + !members);
  (List.rev !out, untraced, traced)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [run input ~seed ~dir ~seconds ~check] repeats ladder passes within
   [seconds] (at least one pass). Returns the per-layer
   metrics (medians over passes), the check counts and the span log. *)
let run (input : W.input) ~seed ~dir ~seconds ~check =
  let tr = Spans.create () in
  let counts = { attempted = 0; failed = 0 } in
  let fixed = Spans.span tr "ladder.counts" (fun () -> fixed_counts input) in
  let start = Agg_obs.Span.now_ns () in
  let passes = ref [] and last = ref 0.0 in
  let run_id = ref 0 in
  (* no pass is started that would end after [seconds] *)
  while !passes = [] || Agg_obs.Span.seconds_since start +. !last <= seconds do
    incr run_id;
    Spans.set_run tr !run_id;
    let t0 = Agg_obs.Span.now_ns () in
    passes := pass tr input ~seed ~dir ~fixed ~check ~counts :: !passes;
    last := Agg_obs.Span.seconds_since t0
  done;
  let passes = List.rev !passes in
  let names = match passes with (m, _, _) :: _ -> List.map fst m | [] -> [] in
  let metrics =
    List.map (fun name -> (name, median (List.map (fun (m, _, _) -> List.assoc name m) passes))) names
  in
  let untraced = median (List.map (fun (_, u, _) -> Int64.to_float u) passes) in
  let traced = median (List.map (fun (_, _, t) -> Int64.to_float t) passes) in
  (metrics @ [ ("bench.tracing_overhead", (traced /. untraced) -. 1.0) ], counts, tr, List.length passes)
