(* The four benchmark workloads: their set-up, their end-to-end replay
   and the checks every replay's output must pass.

   Every replay is a closed-loop, single-caller batch replay on one
   domain: the next access is issued when the previous one returns.
   Simulated caches start empty in every replay. *)

module Profile = Agg_workload.Profile
module Trace = Agg_trace.Trace
module Codec = Agg_trace.Codec
module Weights = Agg_trace.Weights
module Cache = Agg_cache.Cache
module Config = Agg_core.Config
module Client_cache = Agg_core.Client_cache
module Path = Agg_system.Path
module Cost_model = Agg_system.Cost_model
module Cluster = Agg_cluster.Cluster

type kind = Server_path | Write_trace_sparse | Users_cluster | Sized_weighted

type spec = {
  kind : kind;
  name : string;
  profile : Profile.t;
  events : int;
  capacity : int;  (** capacity of the client tier, in size units *)
}

let specs =
  [
    { kind = Server_path; name = "server-path"; profile = Profile.server; events = 300_000; capacity = 300 };
    {
      kind = Write_trace_sparse;
      name = "write-trace-sparse";
      profile = Profile.write;
      events = 300_000;
      capacity = 300;
    };
    { kind = Users_cluster; name = "users-cluster"; profile = Profile.users; events = 300_000; capacity = 150 };
    {
      kind = Sized_weighted;
      name = "sized-weighted";
      profile = Profile.sized_server;
      events = 300_000;
      capacity = 1_000;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* --- configurations ---------------------------------------------------- *)

let g5 = Config.with_group_size 5 Config.default

let path_config spec =
  let deployment =
    match spec.kind with Write_trace_sparse -> `Aggregating_client | _ -> `Aggregating_both
  in
  Path.with_deployment deployment Path.default_config

let cluster_config spec =
  {
    Cluster.default_config with
    Cluster.nodes = 5;
    replicas = 2;
    metadata = Cluster.Replicated_with_group;
    clients = spec.profile.Profile.clients;
    faults = Agg_faults.Plan.default;
    churn = [ (spec.events / 3, Cluster.Leave 4); (2 * spec.events / 3, Cluster.Join 4) ];
  }

(* The sized-weighted verdict column, in replay order. *)
let weighted_policies = [ "lru"; "landlord"; "greedy-dual"; "bundle"; "g5" ]

(* --- set-up -------------------------------------------------------------- *)

type input = {
  spec : spec;
  dense : Trace.t;  (** the generated stream, generator ids *)
  trace : Trace.t;  (** the replayed stream: sparse ids on write-trace-sparse *)
  files : int array;  (** [trace]'s file ids *)
  trc : string;  (** the [.trc] file of [trace] (written on write-trace-sparse only) *)
  weights : Weights.t;  (** empty for unit-weight profiles *)
}

let sparse_bits = 20

(* Real inode numbers are sparse: a seeded bijection of the 2^20 id
   space, drawn from the workload seed. *)
let sparse_ids ~seed =
  let ids = Array.init (1 lsl sparse_bits) Fun.id in
  Agg_util.Prng.shuffle (Agg_util.Prng.derive (Agg_util.Prng.create ~seed ()) 1) ids;
  ids

let remap ids dense =
  let t = Trace.create () in
  Trace.iter
    (fun (e : Agg_trace.Event.t) ->
      if e.file >= Array.length ids then
        invalid_arg (Printf.sprintf "file id %d outside the sparse id space" e.file);
      Trace.append t { e with file = ids.(e.file) })
    dense;
  t

let setup spec ~seed ~dir =
  let dense = Agg_workload.Generator.generate ~seed ~events:spec.events spec.profile in
  let trc = Filename.concat dir (Printf.sprintf "%s-%d.trc" spec.name seed) in
  let trace =
    match spec.kind with
    | Write_trace_sparse ->
        let sparse = remap (sparse_ids ~seed) dense in
        Codec.write_file trc sparse;
        sparse
    | Server_path | Users_cluster | Sized_weighted -> dense
  in
  let weights = Profile.weights_for spec.profile dense in
  { spec; dense; trace; files = Trace.files trace; trc; weights }

let weight_of input = Weights.get input.weights

(* --- end-to-end replay ------------------------------------------------- *)

(* One policy's counters on the sized-weighted stream. *)
type policy_counters = {
  policy : string;
  accesses : int;
  hits : int;
  used : int option;  (** resident size after the replay, where exposed *)
  w : Cache.weighted_stats;
}

type raw =
  | Path_result of Path.result
  | Cluster_result of Cluster.result
  | Policies of policy_counters list

(* The simulated end-to-end figures of one replay, at the client tier.
   On sized-weighted the client tier is Landlord with the store directly
   behind it. *)
type sim = {
  accesses : int;
  hits : int;
  bytes_accessed : int;
  bytes_hit : int;
  store_reads : int;  (** files read at the store *)
  retrieval_cost : int;  (** demand + speculative cost paid at the store *)
  mean_latency_ms : float;
  p95_latency_ms : float;
  degraded : int;  (** degraded fetches *)
}

type outcome = {
  host_accesses : int;  (** accesses the replay performed *)
  raw : raw;
}

let facade_counters policy cache files =
  Array.iter (fun f -> ignore (Cache.access cache f)) files;
  let s = Cache.stats cache in
  {
    policy;
    accesses = s.Cache.accesses;
    hits = s.Cache.hits;
    used = Some (Cache.used cache);
    w = Cache.weighted_stats cache;
  }

(* Landlord serving whole predicted retrieval groups as one bundle, the
   way an aggregating client would: the anchor's cost is the demand fetch
   and the speculative members' costs are prefetch spend. *)
let bundle_replay ?on_victims ~weight_of ~capacity files =
  let tracker =
    Agg_successor.Tracker.create ~capacity:g5.Config.successor_capacity ~policy:g5.Config.metadata_policy ()
  in
  let b = Agg_baselines.Bundle.create ~capacity in
  let hits = ref 0 and bytes_accessed = ref 0 and bytes_hit = ref 0 in
  let cost_fetched = ref 0 and cost_prefetched = ref 0 in
  Array.iter
    (fun file ->
      Agg_successor.Tracker.observe tracker file;
      let w : Agg_cache.Policy.weight = weight_of file in
      bytes_accessed := !bytes_accessed + w.size;
      if Agg_baselines.Bundle.mem b file then begin
        incr hits;
        bytes_hit := !bytes_hit + w.size;
        Agg_baselines.Bundle.promote b file;
        Agg_baselines.Bundle.charge b file ~cost:w.cost
      end
      else begin
        cost_fetched := !cost_fetched + w.cost;
        let group = Agg_core.Group_builder.build tracker ~group_size:g5.Config.group_size file in
        List.iter
          (fun m ->
            if m <> file && not (Agg_baselines.Bundle.mem b m) then
              cost_prefetched := !cost_prefetched + (weight_of m).cost)
          group;
        let victims = Agg_baselines.Bundle.request_bundle b ~weight_of group in
        match on_victims with Some f -> f victims | None -> ()
      end)
    files;
  {
    policy = "bundle";
    accesses = Array.length files;
    hits = !hits;
    used = Some (Agg_baselines.Bundle.used b);
    w =
      {
        Cache.bytes_accessed = !bytes_accessed;
        bytes_hit = !bytes_hit;
        cost_fetched = !cost_fetched;
        cost_prefetched = !cost_prefetched;
      };
  }

let landlord_cache ~weight_of ~capacity =
  Cache.of_policy ~weight_of (module Agg_baselines.Landlord) (Agg_baselines.Landlord.create ~capacity)

let greedy_dual_cache ~weight_of ~capacity =
  Cache.of_policy ~weight_of (module Agg_baselines.Greedy_dual) (Agg_baselines.Greedy_dual.create ~capacity)

let policy_replay ~weight_of ~capacity files = function
  | "lru" -> facade_counters "lru" (Cache.create ~weight_of Cache.Lru ~capacity) files
  | "landlord" -> facade_counters "landlord" (landlord_cache ~weight_of ~capacity) files
  | "greedy-dual" -> facade_counters "greedy-dual" (greedy_dual_cache ~weight_of ~capacity) files
  | "bundle" -> bundle_replay ~weight_of ~capacity files
  | "g5" ->
      let cache = Client_cache.create ~config:g5 ~weight_of ~capacity () in
      let m = Client_cache.run_files cache files in
      {
        policy = "g5";
        accesses = m.Agg_core.Metrics.accesses;
        hits = m.Agg_core.Metrics.hits;
        used = None;
        w = Client_cache.weighted_metrics cache;
      }
  | p -> invalid_arg ("unknown policy " ^ p)

(* [replay ?tr input] is one end-to-end replay. With a span log [tr],
   each whole-run call gets a span. *)
let replay ?tr input =
  let spec = input.spec in
  let span name f = match tr with Some t -> Spans.span t name f | None -> f () in
  match spec.kind with
  | Server_path ->
      let r = span "system.path.run" (fun () -> Path.run (path_config spec) input.trace) in
      { host_accesses = r.Path.accesses; raw = Path_result r }
  | Write_trace_sparse ->
      let trace = span "trace.codec.read_file" (fun () -> Codec.read_file input.trc) in
      let r = span "system.path.run" (fun () -> Path.run (path_config spec) trace) in
      { host_accesses = r.Path.accesses; raw = Path_result r }
  | Users_cluster ->
      let r = span "cluster.run" (fun () -> Cluster.run (cluster_config spec) input.trace) in
      { host_accesses = r.Cluster.accesses; raw = Cluster_result r }
  | Sized_weighted ->
      let weight_of = weight_of input in
      let counters =
        List.map
          (fun p ->
            span ("weighted." ^ p) (fun () ->
                policy_replay ~weight_of ~capacity:spec.capacity input.files p))
          weighted_policies
      in
      {
        host_accesses = List.fold_left (fun acc (c : policy_counters) -> acc + c.accesses) 0 counters;
        raw = Policies counters;
      }

let landlord_of counters = List.find (fun (c : policy_counters) -> c.policy = "landlord") counters

let sim_of outcome =
  match outcome.raw with
  | Path_result r ->
      {
        accesses = r.Path.accesses;
        hits = r.Path.client_hits;
        bytes_accessed = r.Path.accesses;
        bytes_hit = r.Path.client_hits;
        store_reads = r.Path.disk_reads;
        retrieval_cost = r.Path.disk_reads;
        mean_latency_ms = r.Path.mean_latency;
        p95_latency_ms = r.Path.p95_latency;
        degraded = r.Path.faults.Agg_faults.Counters.degraded_fetches;
      }
  | Cluster_result r ->
      {
        accesses = r.Cluster.accesses;
        hits = r.Cluster.client_hits;
        bytes_accessed = r.Cluster.accesses;
        bytes_hit = r.Cluster.client_hits;
        store_reads = r.Cluster.store_fetches;
        retrieval_cost = r.Cluster.store_fetches;
        mean_latency_ms = r.Cluster.mean_latency;
        p95_latency_ms = r.Cluster.p95_latency;
        degraded = r.Cluster.faults.Agg_faults.Counters.degraded_fetches;
      }
  | Policies counters ->
      (* Landlord as a client cache with the store directly behind it:
         a hit costs a client-memory copy, a miss a demand fetch served
         from disk, both under the LAN cost model. *)
      let l = landlord_of counters in
      let misses = l.accesses - l.hits in
      let hit_ms = Cost_model.lan.Cost_model.client_memory in
      let miss_ms = Cost_model.demand_fetch_latency Cost_model.lan ~served_from_disk:true in
      let n = l.accesses in
      {
        accesses = n;
        hits = l.hits;
        bytes_accessed = l.w.Cache.bytes_accessed;
        bytes_hit = l.w.Cache.bytes_hit;
        store_reads = misses;
        retrieval_cost = l.w.Cache.cost_fetched + l.w.Cache.cost_prefetched;
        mean_latency_ms =
          (if n = 0 then 0.0
           else ((float_of_int l.hits *. hit_ms) +. (float_of_int misses *. miss_ms)) /. float_of_int n);
        (* the order statistic Path uses: index (n - 1) * 0.95 of the
           ascending latencies, hits first *)
        p95_latency_ms =
          (if int_of_float (float_of_int (n - 1) *. 0.95) < l.hits then hit_ms else miss_ms);
        degraded = 0;
      }

(* --- output checks ----------------------------------------------------- *)

(* Check inputs computed once, outside the timed region. *)
type reference = {
  first : outcome;  (** the untimed reference replay every timed one must equal *)
  standalone_hits : int option;
      (** server-path: hits of a standalone g5 [Client_cache] replay *)
  dense_result : Path.result option;
      (** write-trace-sparse: the same Path replay on generator ids *)
}

let reference input =
  let first = replay input in
  let spec = input.spec in
  let standalone_hits =
    match spec.kind with
    | Server_path ->
        let cache = Client_cache.create ~config:g5 ~capacity:(path_config spec).Path.client_capacity () in
        Some (Client_cache.run_files cache (Trace.files input.dense)).Agg_core.Metrics.hits
    | _ -> None
  in
  let dense_result =
    match spec.kind with Write_trace_sparse -> Some (Path.run (path_config spec) input.dense) | _ -> None
  in
  { first; standalone_hits; dense_result }

(* A deliberately corrupted reference, for the benchmark's self-test:
   every replay checked against it must be counted as failed. *)
let corrupt r =
  let raw =
    match r.first.raw with
    | Path_result p -> Path_result { p with Path.client_hits = p.Path.client_hits + 1 }
    | Cluster_result c -> Cluster_result { c with Cluster.client_hits = c.Cluster.client_hits + 1 }
    | Policies (c :: rest) -> Policies ({ c with hits = c.hits + 1 } :: rest)
    | Policies [] -> Policies []
  in
  { r with first = { r.first with raw } }

(* [check input reference outcome] lists every failed check. *)
let check input reference outcome =
  let fails = ref [] in
  let expect name ok = if not ok then fails := name :: !fails in
  let events = input.spec.events in
  expect "counters equal the reference replay's" (outcome.raw = reference.first.raw);
  (match outcome.raw with
  | Path_result r ->
      let misses = r.Path.accesses - r.Path.client_hits in
      expect "accesses = events" (r.Path.accesses = events);
      expect "client_hits <= accesses" (r.Path.client_hits <= r.Path.accesses);
      expect "server_hits <= misses" (r.Path.server_hits <= misses);
      expect "round_trips = misses" (r.Path.round_trips = misses);
      (match reference.standalone_hits with
      | Some h -> expect "client_hits = standalone Client_cache g5 hits" (r.Path.client_hits = h)
      | None -> ());
      (match reference.dense_result with
      | Some d -> expect "sparse-id result = dense-id result" (r = d)
      | None -> ())
  | Cluster_result r ->
      let degraded = r.Cluster.faults.Agg_faults.Counters.degraded_fetches in
      expect "accesses = events" (r.Cluster.accesses = events);
      expect "client_hits + server_requests = accesses"
        (r.Cluster.client_hits + r.Cluster.server_requests = r.Cluster.accesses);
      expect "server_hits <= server_requests" (r.Cluster.server_hits <= r.Cluster.server_requests);
      expect "routed + degraded = server_requests"
        (r.Cluster.routed_fetches + degraded = r.Cluster.server_requests)
  | Policies counters ->
      expect "every policy replayed" (List.map (fun (c : policy_counters) -> c.policy) counters = weighted_policies);
      List.iter
        (fun (c : policy_counters) ->
          expect (c.policy ^ ": accesses = events") (c.accesses = events);
          expect (c.policy ^ ": hits <= accesses") (c.hits <= c.accesses);
          expect (c.policy ^ ": bytes_hit <= bytes_accessed") (c.w.Cache.bytes_hit <= c.w.Cache.bytes_accessed);
          match c.used with
          | Some used -> expect (c.policy ^ ": used <= capacity") (used <= input.spec.capacity)
          | None -> ())
        counters);
  List.rev !fails
