(* Tests for the end-to-end path simulator: cost arithmetic, accounting
   identities, and the latency orderings the deployments must satisfy;
   and for the many-client, one-server fleet, run as the one-node
   cluster. *)

open Agg_system

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let test_cost_model_arithmetic () =
  let c = Cost_model.lan in
  check_float "memory-served fetch" (0.5 +. 0.05 +. 0.2)
    (Cost_model.demand_fetch_latency c ~served_from_disk:false);
  check_float "disk-served fetch" (0.5 +. 8.0 +. 0.2)
    (Cost_model.demand_fetch_latency c ~served_from_disk:true);
  check_bool "wan slower" true
    (Cost_model.demand_fetch_latency Cost_model.wan ~served_from_disk:false
    > Cost_model.demand_fetch_latency Cost_model.lan ~served_from_disk:false)

let small_config deployment =
  Path.with_deployment ~group_size:3 deployment
    { Path.default_config with Path.client_capacity = 4; server_capacity = 8 }

let test_baseline_crafted_latencies () =
  (* capacity 4 client: 1 2 3 1 2 -> misses 1,2,3 then hits 1,2 *)
  let trace = Agg_trace.Trace.of_files [ 1; 2; 3; 1; 2 ] in
  let r = Path.run (small_config `Baseline) trace in
  check_int "accesses" 5 r.Path.accesses;
  check_int "client hits" 2 r.Path.client_hits;
  check_int "rtts" 3 r.Path.round_trips;
  check_int "disk reads (cold server)" 3 r.Path.disk_reads;
  check_int "one file per rtt" 3 r.Path.files_transferred;
  let expect_mean =
    ((3.0 *. Cost_model.demand_fetch_latency Cost_model.lan ~served_from_disk:true)
    +. (2.0 *. Cost_model.lan.Cost_model.client_memory))
    /. 5.0
  in
  check_float "mean latency" expect_mean r.Path.mean_latency

let test_accounting_identities () =
  let trace =
    Agg_workload.Generator.generate ~seed:5 ~events:8000 Agg_workload.Profile.workstation
  in
  List.iter
    (fun deployment ->
      let r = Path.run (Path.with_deployment deployment Path.default_config) trace in
      check_int "accesses = trace" (Agg_trace.Trace.length trace) r.Path.accesses;
      check_int "rtts = client misses" (r.Path.accesses - r.Path.client_hits) r.Path.round_trips;
      check_bool "transferred >= rtts" true (r.Path.files_transferred >= r.Path.round_trips);
      check_bool "server hits <= rtts" true (r.Path.server_hits <= r.Path.round_trips);
      check_bool "latency ordering" true
        (r.Path.mean_latency <= r.Path.p95_latency && r.Path.p95_latency <= r.Path.p99_latency))
    [ `Baseline; `Aggregating_client; `Aggregating_both ]

let test_baseline_transfers_one_per_rtt () =
  let trace =
    Agg_workload.Generator.generate ~seed:5 ~events:5000 Agg_workload.Profile.server
  in
  let r = Path.run (Path.with_deployment `Baseline Path.default_config) trace in
  check_int "baseline sends exactly one file per round trip" r.Path.round_trips
    r.Path.files_transferred

let test_aggregation_cuts_latency_on_predictable_workload () =
  let trace =
    Agg_workload.Generator.generate ~seed:7 ~events:15_000 Agg_workload.Profile.server
  in
  let run deployment = Path.run (Path.with_deployment deployment Path.default_config) trace in
  let baseline = run `Baseline in
  let agg = run `Aggregating_client in
  let both = run `Aggregating_both in
  check_bool "fewer round trips" true (agg.Path.round_trips < baseline.Path.round_trips);
  check_bool "lower mean latency" true (agg.Path.mean_latency < baseline.Path.mean_latency);
  check_bool "bandwidth is the price" true
    (agg.Path.files_transferred > baseline.Path.files_transferred);
  check_bool "server staging helps server hits" true (both.Path.server_hits >= agg.Path.server_hits)

(* A list-based restatement of Path's fault-free replay: the client's
   group and the server's readahead are built separately with
   [Group_builder.build], and the extension is the deeper group minus the
   client's. Path builds once and splits when the prefix invariant
   allows; every counter must still agree, for every pairing of client
   and server group sizes — the immediate sizes 2 and 3 included, where
   Path must build twice. *)
let reference_path (config : Path.config) trace =
  let module Cache = Agg_cache.Cache in
  let client = Cache.create (Scheme.cache_kind config.Path.client) ~capacity:config.Path.client_capacity in
  let server = Cache.create (Scheme.cache_kind config.Path.server) ~capacity:config.Path.server_capacity in
  let tracker = Agg_successor.Tracker.create () in
  let build scheme file =
    match Scheme.group_config scheme with
    | Some c -> Agg_core.Group_builder.build tracker ~group_size:c.Agg_core.Config.group_size file
    | None -> [ file ]
  in
  let hits = ref 0 and server_hits = ref 0 and disk = ref 0 and sent = ref 0 in
  let stage members =
    List.iter (fun m -> if not (Cache.mem server m) then incr disk) members;
    ignore (Cache.insert_cold_group server members)
  in
  Agg_trace.Trace.iter
    (fun (e : Agg_trace.Event.t) ->
      let file = e.Agg_trace.Event.file in
      Agg_successor.Tracker.observe tracker file;
      if Cache.access client file then incr hits
      else begin
        let group = build config.Path.client file in
        let members = List.tl group in
        if Cache.access server file then incr server_hits else incr disk;
        sent := !sent + List.length group;
        stage members;
        ignore (Cache.insert_cold_group client members);
        if Scheme.group_config config.Path.server <> None then
          stage (List.filteri (fun i _ -> i >= List.length group) (build config.Path.server file))
      end)
    trace;
  (!hits, !server_hits, !disk, !sent)

let test_shared_build_matches_two_builds () =
  let trace = Agg_workload.Generator.generate ~seed:3 ~events:6_000 Agg_workload.Profile.server in
  let scheme g = if g = 0 then Scheme.plain_lru else Scheme.aggregating ~group_size:g () in
  List.iter
    (fun (cg, sg) ->
      let config =
        { Path.default_config with Path.client = scheme cg; server = scheme sg; client_capacity = 100 }
      in
      let r = Path.run config trace in
      let hits, server_hits, disk, sent = reference_path config trace in
      let label = Printf.sprintf "client g%d, server g%d: %s" cg sg in
      check_int (label "client hits") hits r.Path.client_hits;
      check_int (label "server hits") server_hits r.Path.server_hits;
      check_int (label "disk reads") disk r.Path.disk_reads;
      check_int (label "transferred") sent r.Path.files_transferred)
    (List.concat_map (fun cg -> List.map (fun sg -> (cg, sg)) [ 0; 1; 2; 3; 5; 8; 10 ]) [ 0; 1; 2; 3; 4; 5; 6 ])

let test_deployment_names () =
  Alcotest.(check string) "baseline" "baseline" (Path.deployment_name `Baseline);
  Alcotest.(check string) "client" "agg-client" (Path.deployment_name `Aggregating_client);
  Alcotest.(check string) "both" "agg-both" (Path.deployment_name `Aggregating_both)

let test_empty_trace () =
  let r = Path.run Path.default_config (Agg_trace.Trace.create ()) in
  check_int "no accesses" 0 r.Path.accesses;
  check_float "zero latency" 0.0 r.Path.mean_latency

(* --- Fleet: many clients, one server ------------------------------------ *)

(* The one-server fleet is the default single-node, single-replica,
   owner-metadata cluster without churn. *)
module Cluster = Agg_cluster.Cluster

let fleet_config ?(clients = 2) ?(write_invalidation = true) () =
  {
    Cluster.default_config with
    Cluster.clients;
    client_capacity = 8;
    node_capacity = 16;
    write_invalidation;
  }

let test_fleet_accounting () =
  let trace = Agg_workload.Generator.generate ~seed:5 ~events:6000 Agg_workload.Profile.users in
  let r = Cluster.run (fleet_config ~clients:4 ()) trace in
  check_int "accesses" 6000 r.Cluster.accesses;
  check_int "requests = misses" (r.Cluster.accesses - r.Cluster.client_hits)
    r.Cluster.server_requests;
  check_bool "server hits <= requests" true (r.Cluster.server_hits <= r.Cluster.server_requests);
  check_int "four per-client rows" 4 (List.length r.Cluster.per_client_hit_rate);
  Alcotest.(check (list (pair int int)))
    "one node serves every request" [ (0, r.Cluster.server_requests) ]
    r.Cluster.per_node_requests

let test_fleet_write_invalidation () =
  (* two clients ping-pong on one file: writes by client 1 must break
     client 0's cached copy, forcing it back to the server *)
  let trace = Agg_trace.Trace.create () in
  for _ = 1 to 20 do
    Agg_trace.Trace.add_access trace ~client:0 ~op:Agg_trace.Event.Open 7;
    Agg_trace.Trace.add_access trace ~client:1 ~op:Agg_trace.Event.Write 7
  done;
  let with_inv = Cluster.run (fleet_config ()) trace in
  let without_inv = Cluster.run (fleet_config ~write_invalidation:false ()) trace in
  check_bool "invalidations recorded" true (with_inv.Cluster.invalidations > 0);
  check_int "no invalidations when disabled" 0 without_inv.Cluster.invalidations;
  check_bool "coherence costs client hits" true
    (with_inv.Cluster.client_hits < without_inv.Cluster.client_hits)

let test_fleet_single_client_matches_many_ids () =
  (* clients = 1 folds every stream into one cache; ids beyond the fleet
     size wrap around instead of crashing *)
  let trace = Agg_workload.Generator.generate ~seed:5 ~events:3000 Agg_workload.Profile.users in
  let r = Cluster.run (fleet_config ~clients:1 ()) trace in
  check_int "all accesses in one client" 3000 r.Cluster.accesses;
  check_int "one row" 1 (List.length r.Cluster.per_client_hit_rate)

let test_fleet_aggregation_reduces_requests () =
  let trace = Agg_workload.Generator.generate ~seed:7 ~events:10_000 Agg_workload.Profile.server in
  let base =
    {
      Cluster.default_config with
      Cluster.clients = 1;
      client_capacity = 200;
      node_capacity = 300;
    }
  in
  let plain = Cluster.run { base with Cluster.client_scheme = Scheme.plain_lru } trace in
  let agg = Cluster.run base trace in
  check_bool "fewer server requests with grouping" true
    (agg.Cluster.server_requests < plain.Cluster.server_requests)

let test_fleet_invalid_clients () =
  Alcotest.check_raises "0 clients"
    (Invalid_argument "Cluster.run: clients must be positive (got 0)") (fun () ->
      ignore
        (Cluster.run { Cluster.default_config with Cluster.clients = 0 } (Agg_trace.Trace.create ())));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Cluster.run: client_capacity must be positive (got -3)") (fun () ->
      ignore
        (Cluster.run
           { Cluster.default_config with Cluster.client_capacity = -3 }
           (Agg_trace.Trace.create ())))

(* --- telemetry: series + trace context -------------------------------- *)

let hostile_faults =
  {
    Agg_faults.Plan.none with
    Agg_faults.Plan.loss_rate = 0.1;
    outage_period = 2_000;
    outage_rate = 0.1;
    outage_length = 200;
    seed = 11;
  }

let test_path_series_reconciles () =
  let trace =
    Agg_workload.Generator.generate ~seed:7 ~events:8_000 Agg_workload.Profile.server
  in
  let series = Agg_obs.Series.create ~window:1_000 in
  let ctx = Agg_obs.Trace_ctx.create ~seed:7 () in
  let config =
    Path.with_deployment `Aggregating_both
      { Path.default_config with Path.faults = hostile_faults;
        scope = Some (Agg_obs.Scope.create ~series ~trace_ctx:ctx ()) }
  in
  let r = Path.run config trace in
  check_int "series accesses = run accesses" r.Path.accesses
    (Agg_obs.Series.total_accesses series);
  check_int "series hits = client hits" r.Path.client_hits (Agg_obs.Series.total_hits series);
  check_int "series degraded = fault counter"
    r.Path.faults.Agg_faults.Counters.degraded_fetches
    (Agg_obs.Series.total_degraded series);
  check_int "every access carries one latency sample" r.Path.accesses
    (Agg_obs.Histogram.count (Agg_obs.Series.total_latency series));
  (* the series' latency mass equals the run's mean within the per-access
     microsecond rounding *)
  let series_ms =
    float_of_int (Agg_obs.Histogram.sum (Agg_obs.Series.total_latency series)) /. 1000.0
  in
  let run_ms = r.Path.mean_latency *. float_of_int r.Path.accesses in
  check_bool "latency mass matches within rounding" true
    (Float.abs (series_ms -. run_ms) <= 0.0005 *. float_of_int r.Path.accesses);
  (* sample 1.0: every request committed, roots = accesses, and the
     attribution profile covers the phases the path actually took *)
  check_int "every request traced" r.Path.accesses (Agg_obs.Trace_ctx.sampled_requests ctx);
  let roots =
    List.length
      (List.filter (fun s -> s.Agg_obs.Trace_ctx.depth = 0) (Agg_obs.Trace_ctx.spans ctx))
  in
  check_int "one root span per request" r.Path.accesses roots;
  let cats = List.map fst (Agg_obs.Trace_ctx.attribution ctx) in
  check_bool "attribution names the fetch and timeout phases" true
    (List.mem "fetch" cats && List.mem "timeout" cats)

let test_path_telemetry_off_identity () =
  let trace =
    Agg_workload.Generator.generate ~seed:7 ~events:6_000 Agg_workload.Profile.server
  in
  let run ~telemetry =
    let base =
      Path.with_deployment `Aggregating_both
        { Path.default_config with Path.faults = hostile_faults }
    in
    let config =
      if telemetry then
        { base with
          Path.scope =
            Some
              (Agg_obs.Scope.create
                 ~series:(Agg_obs.Series.create ~window:500)
                 ~trace_ctx:(Agg_obs.Trace_ctx.create ~sample:0.5 ~seed:3 ())
                 ()) }
      else base
    in
    Path.run config trace
  in
  check_bool "instrumented run byte-identical to plain run" true
    (run ~telemetry:false = run ~telemetry:true)

let test_fleet_series_reconciles () =
  let trace = Agg_workload.Generator.generate ~seed:5 ~events:6_000 Agg_workload.Profile.users in
  let series = Agg_obs.Series.create ~window:1_000 in
  let config =
    { (fleet_config ~clients:3 ()) with Cluster.faults = hostile_faults;
      scope =
        Some
          (Agg_obs.Scope.create ~series
             ~trace_ctx:(Agg_obs.Trace_ctx.create ~seed:5 ())
             ()) }
  in
  let r = Cluster.run config trace in
  check_int "series accesses = run accesses" r.Cluster.accesses
    (Agg_obs.Series.total_accesses series);
  check_int "series hits = client hits" r.Cluster.client_hits (Agg_obs.Series.total_hits series);
  check_int "series degraded = degraded fetches"
    r.Cluster.faults.Agg_faults.Counters.degraded_fetches
    (Agg_obs.Series.total_degraded series);
  let plain =
    Cluster.run { (fleet_config ~clients:3 ()) with Cluster.faults = hostile_faults } trace
  in
  check_bool "instrumented fleet run identical to plain" true (plain = r)

let qcheck_tests =
  let open QCheck in
  let files_gen = list_of_size (Gen.int_range 10 300) (int_range 0 30) in
  [
    Test.make ~name:"latency bounded by worst-case fetch" ~count:60 files_gen (fun files ->
        let trace = Agg_trace.Trace.of_files files in
        let r = Path.run (small_config `Aggregating_client) trace in
        let worst = Cost_model.demand_fetch_latency Cost_model.lan ~served_from_disk:true in
        r.Path.mean_latency >= Cost_model.lan.Cost_model.client_memory -. 1e-9
        && r.Path.p99_latency <= worst +. 1e-9);
    Test.make ~name:"client hits + rtts = accesses" ~count:60 files_gen (fun files ->
        let trace = Agg_trace.Trace.of_files files in
        let r = Path.run (small_config `Aggregating_both) trace in
        r.Path.client_hits + r.Path.round_trips = r.Path.accesses);
  ]

(* --- allocation ceilings ----------------------------------------------------

   Minor words allocated per access, read from [Gc.minor_words] around
   the measured loop. Allocation is a deterministic function of the code
   and its input, so these ceilings gate regressions exactly, however
   noisy the machine's timings are. *)

let minor_words_per ~accesses f =
  let w0 = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. w0) /. float_of_int accesses

let check_ceiling name ~ceiling words =
  if not (words <= ceiling) then
    Alcotest.failf "%s: %.3f minor words per access, ceiling %.3f" name words ceiling

let test_alloc_cache_lru_hits () =
  let cache = Agg_cache.Cache.create Agg_cache.Cache.Lru ~capacity:256 in
  for f = 0 to 255 do
    ignore (Agg_cache.Cache.access cache f)
  done;
  let accesses = 200_000 in
  let words =
    minor_words_per ~accesses (fun () ->
        for i = 1 to accesses do
          ignore (Agg_cache.Cache.access cache (i * 37 land 255))
        done)
  in
  check_int "all hits" accesses (Agg_cache.Cache.stats cache).Agg_cache.Cache.hits;
  check_ceiling "Cache lru hit" ~ceiling:0.01 words

let test_alloc_tracker_observe () =
  let files = Agg_trace.Trace.files (Agg_workload.Generator.generate ~seed:1 ~events:60_000 Agg_workload.Profile.server) in
  let tracker = Agg_successor.Tracker.create () in
  (* one warm pass grows the flat arrays to the namespace *)
  Array.iter (Agg_successor.Tracker.observe tracker) files;
  let words =
    minor_words_per ~accesses:(Array.length files) (fun () ->
        Array.iter (Agg_successor.Tracker.observe tracker) files)
  in
  check_ceiling "Tracker.observe" ~ceiling:0.01 words

let test_alloc_client_g5_hits () =
  let config = Agg_core.Config.with_group_size 5 Agg_core.Config.default in
  let client = Agg_core.Client_cache.create ~config ~capacity:256 () in
  (* a repeating run of 100 files: warm-up misses build groups, then
     every access is a hit *)
  for i = 0 to 999 do
    ignore (Agg_core.Client_cache.access client (i mod 100))
  done;
  let accesses = 200_000 in
  let hits = ref 0 in
  let words =
    minor_words_per ~accesses (fun () ->
        for i = 0 to accesses - 1 do
          if Agg_core.Client_cache.access client (i mod 100) then incr hits
        done)
  in
  check_int "all hits" accesses !hits;
  check_ceiling "Client_cache g5 hit" ~ceiling:0.01 words

let test_alloc_path_agg_both () =
  let trace = Agg_workload.Generator.generate ~seed:1 ~events:60_000 Agg_workload.Profile.server in
  let config = Path.with_deployment `Aggregating_both Path.default_config in
  let r = ref None in
  let words = minor_words_per ~accesses:60_000 (fun () -> r := Some (Path.run config trace)) in
  (match !r with Some r -> check_int "accesses" 60_000 r.Path.accesses | None -> ());
  (* set-up included: caches, tracker and the latency recorder. Measured
     at 5.9 words per access when the ceiling was set. *)
  check_ceiling "Path.run Aggregating_both" ~ceiling:10.0 words

let () =
  Alcotest.run "agg_system"
    [
      ( "cost model",
        [ Alcotest.test_case "arithmetic" `Quick test_cost_model_arithmetic ] );
      ( "path",
        [
          Alcotest.test_case "baseline crafted latencies" `Quick test_baseline_crafted_latencies;
          Alcotest.test_case "accounting identities" `Quick test_accounting_identities;
          Alcotest.test_case "baseline one file per rtt" `Quick test_baseline_transfers_one_per_rtt;
          Alcotest.test_case "aggregation cuts latency" `Quick
            test_aggregation_cuts_latency_on_predictable_workload;
          Alcotest.test_case "deployment names" `Quick test_deployment_names;
          Alcotest.test_case "shared build = two builds" `Quick test_shared_build_matches_two_builds;
          Alcotest.test_case "empty trace" `Quick test_empty_trace;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "accounting" `Quick test_fleet_accounting;
          Alcotest.test_case "write invalidation" `Quick test_fleet_write_invalidation;
          Alcotest.test_case "single client" `Quick test_fleet_single_client_matches_many_ids;
          Alcotest.test_case "aggregation reduces requests" `Quick
            test_fleet_aggregation_reduces_requests;
          Alcotest.test_case "invalid clients" `Quick test_fleet_invalid_clients;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "path series reconciles" `Quick test_path_series_reconciles;
          Alcotest.test_case "telemetry off is byte-identical" `Quick
            test_path_telemetry_off_identity;
          Alcotest.test_case "fleet series reconciles" `Quick test_fleet_series_reconciles;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "cache lru hits" `Quick test_alloc_cache_lru_hits;
          Alcotest.test_case "tracker observe" `Quick test_alloc_tracker_observe;
          Alcotest.test_case "client g5 hits" `Quick test_alloc_client_g5_hits;
          Alcotest.test_case "path agg-both ceiling" `Quick test_alloc_path_agg_both;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
