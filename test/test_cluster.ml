(* Tests for the sharded cluster: consistent-hash ring invariants
   (deterministic ownership, distinct replication groups, minimal-movement
   rebalancing), the pinned outputs of the one-node fleet, replica
   failover under node kills, churn rebalancing, event-stream
   reconciliation, and sweep independence from the jobs count. *)

open Agg_cluster
module Plan = Agg_faults.Plan
module Counters = Agg_faults.Counters
module Sink = Agg_obs.Sink
module Obs_digest = Agg_obs.Digest

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let users_trace =
  lazy (Agg_workload.Generator.generate ~seed:5 ~events:4000 Agg_workload.Profile.users)

(* a hostile plan: the default fault rates plus client crashes *)
let hostile = { Plan.default with Plan.crash_rate = 0.002 }

(* independent per-node outage windows, as the cluster sweep builds them *)
let node_kills rate =
  { Plan.none with Plan.seed = 23; outage_period = 1000; outage_rate = rate; outage_length = 400 }

(* --- ring ------------------------------------------------------------- *)

let sample_files = List.init 64 (fun i -> i * 97)

let test_ring_basics () =
  let r = Ring.create ~seed:1 ~nodes:5 () in
  Alcotest.(check (list int)) "members" [ 0; 1; 2; 3; 4 ] (Ring.members r);
  check_int "node_count" 5 (Ring.node_count r);
  check_bool "contains 3" true (Ring.contains r 3);
  check_bool "contains 5" false (Ring.contains r 5);
  List.iter
    (fun f ->
      let owner = Ring.owner r f in
      check_bool "owner is a member" true (Ring.contains r owner);
      Alcotest.(check (list int)) "k=1 group is the owner" [ owner ] (Ring.group r ~replicas:1 f))
    sample_files

let test_ring_validation () =
  let raises f = try f () |> ignore; false with Invalid_argument _ -> true in
  check_bool "nodes=0 rejected" true (raises (fun () -> Ring.create ~seed:1 ~nodes:0 ()));
  let r = Ring.create ~seed:1 ~nodes:2 () in
  check_bool "add duplicate rejected" true (raises (fun () -> Ring.add r 1));
  check_bool "add negative rejected" true (raises (fun () -> Ring.add r (-1)));
  check_bool "remove absent rejected" true (raises (fun () -> Ring.remove r 7));
  check_bool "remove last rejected" true
    (raises (fun () -> Ring.remove (Ring.remove r 0) 1));
  check_bool "replicas=0 rejected" true (raises (fun () -> Ring.group r ~replicas:0 3))

let test_ring_group_clamps () =
  let r = Ring.create ~seed:9 ~nodes:3 () in
  List.iter
    (fun f ->
      let g = Ring.group r ~replicas:10 f in
      Alcotest.(check (list int)) "clamped group covers every member" (Ring.members r)
        (List.sort compare g))
    sample_files

let ring_qcheck =
  let open QCheck in
  let seed_gen = int_range 0 100_000 in
  [
    Test.make ~name:"Ring: ownership is a pure function of seed and membership" ~count:100
      (triple seed_gen (int_range 1 12) (int_range 0 100_000))
      (fun (seed, nodes, file) ->
        let a = Ring.create ~seed ~nodes () in
        let b = Ring.create ~seed ~nodes () in
        Ring.owner a file = Ring.owner b file
        && Ring.group a ~replicas:3 file = Ring.group b ~replicas:3 file);
    Test.make ~name:"Ring: groups are min(k, nodes) distinct members, primary first" ~count:100
      (quad seed_gen (int_range 1 12) (int_range 1 6) (int_range 0 100_000))
      (fun (seed, nodes, k, file) ->
        let r = Ring.create ~seed ~nodes () in
        let g = Ring.group r ~replicas:k file in
        List.length g = min k nodes
        && List.length (List.sort_uniq compare g) = List.length g
        && List.for_all (Ring.contains r) g
        && List.hd g = Ring.owner r file);
    Test.make ~name:"Ring: a join only pulls the new node into groups" ~count:100
      (triple seed_gen (int_range 1 10) (int_range 1 4))
      (fun (seed, nodes, k) ->
        let r = Ring.create ~seed ~nodes () in
        let r' = Ring.add r nodes in
        List.for_all
          (fun f ->
            let before = Ring.group r ~replicas:k f in
            let after = Ring.group r' ~replicas:k f in
            List.for_all (fun n -> List.mem n before || n = nodes) after)
          sample_files);
    Test.make ~name:"Ring: a leave never evicts surviving group members" ~count:100
      (quad seed_gen (int_range 2 10) (int_range 1 4) (int_range 0 9))
      (fun (seed, nodes, k, leaver) ->
        let leaver = leaver mod nodes in
        let r = Ring.create ~seed ~nodes () in
        let r' = Ring.remove r leaver in
        List.for_all
          (fun f ->
            let before = Ring.group r ~replicas:k f in
            let after = Ring.group r' ~replicas:k f in
            List.for_all (fun n -> n = leaver || List.mem n after) before)
          sample_files);
  ]

(* --- the one-server fleet -------------------------------------------------- *)

(* The default config (N = 1, k = 1, [Owner_node], no churn) is the
   one-server fleet. These fingerprints were recorded from the standalone
   single-server simulator the cluster replaced, and the one-node cluster
   must keep reproducing them: the load line as [aggsim fleet] prints
   it, every fault counter, and the exact per-client hit rates. *)

let counter_tuple (c : Counters.t) =
  [
    ("lost_messages", c.Counters.lost_messages);
    ("outage_denials", c.Counters.outage_denials);
    ("timeouts", c.Counters.timeouts);
    ("retries", c.Counters.retries);
    ("degraded_fetches", c.Counters.degraded_fetches);
    ("slowed_fetches", c.Counters.slowed_fetches);
    ("crashes", c.Counters.crashes);
  ]

let check_fleet_fingerprint config ~line ~counters ~per_client =
  let r = Cluster.run config (Lazy.force users_trace) in
  check_string "load line" line (Format.asprintf "%a" Cluster.pp_fleet r);
  Alcotest.(check (list (pair string int)))
    "fault counters"
    (List.combine (List.map fst (counter_tuple r.Cluster.faults)) counters)
    (counter_tuple r.Cluster.faults);
  Alcotest.(check (list (pair int (float 0.0)))) "per-client hit rates"
    (List.mapi (fun i rate -> (i, rate)) per_client)
    r.Cluster.per_client_hit_rate

let test_degenerate_matches_fleet_healthy () =
  check_fleet_fingerprint Cluster.default_config
    ~line:
      "accesses=4000 client_hits=2924 (73.1%) server: 1076 requests, 119 hits (11.1%), 1048 store \
       fetches, 131 invalidations"
    ~counters:[ 0; 0; 0; 0; 0; 0; 0 ]
    ~per_client:
      [ 0x1.6ddb76ddb76dep-1; 0x1.767ab5f34e47fp-1; 0x1.50b078be67543p-1; 0x1.a52badd93d08fp-1 ]

let test_degenerate_matches_fleet_hostile () =
  check_fleet_fingerprint
    { Cluster.default_config with Cluster.faults = hostile }
    ~line:
      "accesses=4000 client_hits=2878 (72.0%) server: 1122 requests, 155 hits (13.8%), 1076 store \
       fetches, 134 invalidations"
    ~counters:[ 128; 0; 128; 126; 2; 0; 6 ]
    ~per_client:
      [ 0x1.62d8b62d8b62ep-1; 0x1.6e043b3d5af9ap-1; 0x1.5145145145145p-1; 0x1.a24728c9542d2p-1 ]

let test_degenerate_matches_fleet_plain_lru () =
  let scheme = Agg_system.Scheme.plain_lru in
  check_fleet_fingerprint
    { Cluster.default_config with Cluster.client_scheme = scheme; node_scheme = scheme; faults = hostile }
    ~line:
      "accesses=4000 client_hits=2810 (70.2%) server: 1190 requests, 196 hits (16.5%), 994 store \
       fetches, 95 invalidations"
    ~counters:[ 135; 0; 135; 133; 2; 0; 6 ]
    ~per_client:
      [ 0x1.5655956559565p-1; 0x1.6079dd4d6f493p-1; 0x1.501bdd2b8994p-1; 0x1.9d1239464aa17p-1 ]

(* --- failover and degradation ------------------------------------------ *)

let test_cluster_keeps_serving_under_node_kills () =
  let trace = Lazy.force users_trace in
  let config =
    {
      Cluster.default_config with
      Cluster.nodes = 5;
      replicas = 3;
      metadata = Cluster.Replicated_with_group;
      faults = node_kills 0.3;
    }
  in
  let r = Cluster.run config trace in
  check_int "every request is served" r.Cluster.server_requests
    (r.Cluster.routed_fetches + r.Cluster.faults.Counters.degraded_fetches);
  check_int "every access is accounted" 4000 r.Cluster.accesses;
  check_bool "outages fired" true (r.Cluster.faults.Counters.outage_denials > 0);
  check_bool "failovers happened" true (r.Cluster.failovers > 0);
  check_bool "clients still hit their caches" true (Cluster.client_hit_rate r > 0.0);
  (* replication is what absorbs the kills: k = 1 on the same plan
     degrades strictly more often *)
  let r1 = Cluster.run { config with Cluster.replicas = 1 } trace in
  check_bool "k=3 degrades less than k=1" true
    (r.Cluster.faults.Counters.degraded_fetches < r1.Cluster.faults.Counters.degraded_fetches)

let test_placement_axis () =
  let trace = Lazy.force users_trace in
  let run placement =
    Cluster.run
      {
        Cluster.default_config with
        Cluster.nodes = 5;
        replicas = 2;
        metadata = placement;
      }
      trace
  in
  let results = List.map run Cluster.placements in
  List.iter
    (fun (r : Cluster.result) ->
      check_int "all accesses" 4000 r.Cluster.accesses;
      check_int "all served" r.Cluster.server_requests r.Cluster.routed_fetches)
    results;
  (* sharding the metadata with the data (owner) must not behave like
     replicating it: the placements are a real axis, not a label *)
  match List.map (fun (r : Cluster.result) -> r.Cluster.client_hits) results with
  | [ owner; grouped; _client ] -> check_bool "owner and group placements differ" true (owner <> grouped)
  | _ -> Alcotest.fail "expected three placements"

(* --- churn -------------------------------------------------------------- *)

let test_churn_rebalances () =
  let trace = Lazy.force users_trace in
  let sink = Sink.memory () in
  let config =
    {
      Cluster.default_config with
      Cluster.nodes = 3;
      replicas = 2;
      metadata = Cluster.Replicated_with_group;
      churn = [ (1000, Cluster.Join 3); (2500, Cluster.Leave 1) ];
      scope = Some (Agg_obs.Scope.create ~sink ());
    }
  in
  let r = Cluster.run config trace in
  check_int "both churn ops applied" 2 r.Cluster.rebalances;
  check_bool "rebalancing moved cached files" true (r.Cluster.moved_files > 0);
  check_bool "joiner served requests" true
    (match List.assoc_opt 3 r.Cluster.per_node_requests with Some n -> n > 0 | None -> false);
  check_bool "leaver's requests retained" true (List.mem_assoc 1 r.Cluster.per_node_requests);
  check_int "rebalance events emitted" 2 (Obs_digest.ring_rebalances (Obs_digest.of_events (Sink.events sink)));
  (* the sink must not influence the simulation *)
  let r2 = Cluster.run { config with Cluster.scope = None } trace in
  check_bool "noop-sink rerun identical" true (r2 = r)

let test_churn_validation () =
  let trace = Lazy.force users_trace in
  let raises config =
    try Cluster.run config trace |> ignore; false with Invalid_argument _ -> true
  in
  check_bool "negative churn time rejected" true
    (raises { Cluster.default_config with Cluster.churn = [ (-1, Cluster.Join 1) ] });
  check_bool "joining a present node rejected" true
    (raises { Cluster.default_config with Cluster.churn = [ (0, Cluster.Join 0) ] });
  check_bool "leaving the last node rejected" true
    (raises { Cluster.default_config with Cluster.churn = [ (0, Cluster.Leave 0) ] })

(* --- event reconciliation ----------------------------------------------- *)

let test_reconcile_event_stream () =
  let trace = Lazy.force users_trace in
  let sink = Sink.memory () in
  let config =
    {
      Cluster.default_config with
      Cluster.nodes = 4;
      replicas = 2;
      metadata = Cluster.Replicated_with_group;
      faults = { (node_kills 0.4) with Plan.loss_rate = 0.05 };
      churn = [ (500, Cluster.Join 4) ];
      scope = Some (Agg_obs.Scope.create ~sink ());
    }
  in
  let r = Cluster.run config trace in
  let events = Sink.events sink in
  let digest = Obs_digest.of_events events in
  (match Cluster.reconcile digest r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "stream does not reconcile: %s" e);
  check_bool "routed events present" true (Obs_digest.node_routes digest > 0);
  check_bool "failover events present" true (Obs_digest.replica_failovers digest > 0);
  check_int "one rebalance event" 1 (Obs_digest.ring_rebalances digest);
  (* dropping the routing events must be detected *)
  let tampered =
    List.filter (function Agg_obs.Event.Node_routed _ -> false | _ -> true) events
  in
  match Cluster.reconcile (Obs_digest.of_events tampered) r with
  | Ok () -> Alcotest.fail "tampered stream reconciled"
  | Error _ -> ()

(* --- sweep: jobs-independence --------------------------------------------- *)

let tiny = { Agg_sim.Experiment.events = 3000; seed = 7; warmup = 0; jobs = 1 }

let test_sweep_jobs_identity () =
  let sweep jobs =
    Agg_sim.Cluster.sweep ~node_counts:[ 3 ] ~node_loss_rates:[ 0.0; 0.2 ]
      ~replica_counts:[ 1; 2 ]
      (Agg_sim.Experiment.Runner.create ~settings:{ tiny with Agg_sim.Experiment.jobs } ())
  in
  let a = sweep 1 in
  let b = sweep 4 in
  check_bool "points identical for jobs=1 and jobs=4" true (a = b);
  check_string "json byte-identical for jobs=1 and jobs=4"
    (Agg_sim.Cluster.json_of_points a)
    (Agg_sim.Cluster.json_of_points b)

(* --- telemetry ----------------------------------------------------------- *)

let telemetry_config () =
  {
    Cluster.default_config with
    Cluster.nodes = 5;
    replicas = 3;
    metadata = Cluster.Replicated_with_group;
    faults = node_kills 0.3;
  }

let test_series_node_loads_reconcile () =
  let trace = Lazy.force users_trace in
  let series = Agg_obs.Series.create ~window:500 in
  let ctx = Agg_obs.Trace_ctx.create ~seed:7 () in
  let r =
    Cluster.run
      { (telemetry_config ()) with
        Cluster.scope = Some (Agg_obs.Scope.create ~series ~trace_ctx:ctx ()) }
      trace
  in
  check_int "series accesses = run accesses" r.Cluster.accesses
    (Agg_obs.Series.total_accesses series);
  check_int "series hits = client hits" r.Cluster.client_hits
    (Agg_obs.Series.total_hits series);
  check_int "series degraded = fault counter" r.Cluster.faults.Counters.degraded_fetches
    (Agg_obs.Series.total_degraded series);
  check_int "every access carries one latency sample" r.Cluster.accesses
    (Agg_obs.Histogram.count (Agg_obs.Series.total_latency series));
  (* the windowed per-node loads sum to per_node_requests, node by node
     (degraded fallbacks count against the primary on both sides) *)
  let loads = Hashtbl.create 8 in
  for w = 0 to Agg_obs.Series.windows series - 1 do
    List.iter
      (fun (n, c) ->
        Hashtbl.replace loads n (c + Option.value ~default:0 (Hashtbl.find_opt loads n)))
      (Agg_obs.Series.node_loads series w)
  done;
  List.iter
    (fun (n, c) ->
      check_int (Printf.sprintf "node %d load" n) c
        (Option.value ~default:0 (Hashtbl.find_opt loads n));
      Hashtbl.remove loads n)
    r.Cluster.per_node_requests;
  check_int "no load outside per_node_requests" 0 (Hashtbl.length loads);
  (* sample 1.0 traces every request; failovers appear as route markers *)
  check_int "every request traced" r.Cluster.accesses (Agg_obs.Trace_ctx.sampled_requests ctx);
  let routes =
    List.length
      (List.filter
         (fun s -> s.Agg_obs.Trace_ctx.span_cat = "route")
         (Agg_obs.Trace_ctx.spans ctx))
  in
  check_int "one route marker per failover" r.Cluster.failovers routes

let test_cluster_telemetry_off_identity () =
  let trace = Lazy.force users_trace in
  let plain = Cluster.run (telemetry_config ()) trace in
  let instrumented =
    Cluster.run
      { (telemetry_config ()) with
        Cluster.scope =
          Some
            (Agg_obs.Scope.create
               ~series:(Agg_obs.Series.create ~window:500)
               ~trace_ctx:(Agg_obs.Trace_ctx.create ~sample:0.25 ~seed:3 ())
               ()) }
      trace
  in
  check_bool "instrumented run byte-identical to plain run" true (plain = instrumented)

let () =
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "basics" `Quick test_ring_basics;
          Alcotest.test_case "validation" `Quick test_ring_validation;
          Alcotest.test_case "group clamps" `Quick test_ring_group_clamps;
        ] );
      ( "fleet degeneracy",
        [
          Alcotest.test_case "healthy" `Quick test_degenerate_matches_fleet_healthy;
          Alcotest.test_case "hostile plan" `Quick test_degenerate_matches_fleet_hostile;
          Alcotest.test_case "plain lru" `Quick test_degenerate_matches_fleet_plain_lru;
        ] );
      ( "failover",
        [
          Alcotest.test_case "keeps serving under kills" `Quick
            test_cluster_keeps_serving_under_node_kills;
          Alcotest.test_case "placement axis" `Quick test_placement_axis;
        ] );
      ( "churn",
        [
          Alcotest.test_case "rebalances" `Quick test_churn_rebalances;
          Alcotest.test_case "validation" `Quick test_churn_validation;
        ] );
      ("events", [ Alcotest.test_case "reconcile" `Quick test_reconcile_event_stream ]);
      ( "telemetry",
        [
          Alcotest.test_case "node loads reconcile" `Quick test_series_node_loads_reconcile;
          Alcotest.test_case "telemetry off is byte-identical" `Quick
            test_cluster_telemetry_off_identity;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "jobs identity" `Quick test_sweep_jobs_identity;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest ring_qcheck);
    ]
