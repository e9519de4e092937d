(* Tests for the paper's core contribution: configuration, group
   construction, and the aggregating client and server caches. The
   strongest invariant — an aggregating cache with group size 1 is
   *exactly* a plain demand cache — is checked both on crafted traces and
   on generated workloads. *)

open Agg_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_list = Alcotest.(check (list int))

(* --- Config -------------------------------------------------------------- *)

let test_config_defaults () =
  let c = Config.default in
  check_int "group size" 5 c.Config.group_size;
  check_int "successor capacity" 8 c.Config.successor_capacity;
  check_bool "recency metadata" true (c.Config.metadata_policy = Agg_successor.Successor_list.Recency);
  check_bool "tail members" true (c.Config.member_position = Config.Tail);
  Config.validate c

let test_config_validation () =
  Alcotest.check_raises "group 0" (Invalid_argument "Config: group_size must be positive")
    (fun () -> ignore (Config.with_group_size 0 Config.default));
  Alcotest.check_raises "succ cap 0"
    (Invalid_argument "Config: successor_capacity must be positive") (fun () ->
      Config.validate { Config.default with successor_capacity = 0 })

(* --- Group_builder --------------------------------------------------------- *)

let tracker_of_runs runs =
  let t = Agg_successor.Tracker.create () in
  List.iter (fun run -> List.iter (fun f -> Agg_successor.Tracker.observe t f) run) runs;
  t

let test_builder_group_of_one () =
  let t = tracker_of_runs [ [ 1; 2; 3 ] ] in
  check_list "just the file" [ 1 ] (Group_builder.build t ~group_size:1 1)

let test_builder_small_groups_use_immediate () =
  (* 1 is followed by 2 (older) and 9 (most recent): recency ranks 9 first *)
  let t = tracker_of_runs [ [ 1; 2 ]; [ 1; 9 ] ] in
  check_list "g2 takes most recent" [ 1; 9 ] (Group_builder.build t ~group_size:2 1);
  check_list "g3 takes both" [ 1; 9; 2 ] (Group_builder.build t ~group_size:3 1)

let test_builder_large_groups_chain () =
  let t = tracker_of_runs [ [ 1; 2; 3; 4; 5; 6 ] ] in
  check_list "transitive chain" [ 1; 2; 3; 4; 5 ] (Group_builder.build t ~group_size:5 1)

let test_builder_chain_fallback () =
  (* chain 1 -> 2 -> 3 stalls at 3 (no successor); the builder falls back
     to the next-ranked successor of a chain member *)
  let t = tracker_of_runs [ [ 1; 7 ]; [ 1; 2; 3 ] ] in
  (* successors: 1 -> [2 (recent); 7], 2 -> [3] *)
  let group = Group_builder.build t ~group_size:5 1 in
  check_bool "contains chain" true (List.mem 2 group && List.mem 3 group);
  check_bool "fallback picks 7" true (List.mem 7 group)

let test_builder_no_metadata () =
  let t = Agg_successor.Tracker.create () in
  check_list "unknown file alone" [ 42 ] (Group_builder.build t ~group_size:5 42)

let test_builder_never_duplicates () =
  let t = tracker_of_runs [ [ 1; 2; 1; 2; 1; 3 ] ] in
  let group = Group_builder.build t ~group_size:6 1 in
  check_int "no duplicates" (List.length group) (List.length (List.sort_uniq compare group));
  check_bool "requested not repeated" true (List.length (List.filter (( = ) 1) group) = 1)

let test_builder_invalid () =
  let t = Agg_successor.Tracker.create () in
  Alcotest.check_raises "size 0"
    (Invalid_argument "Group_builder.build: group_size must be positive") (fun () ->
      ignore (Group_builder.build t ~group_size:0 1))

(* --- Client_cache ------------------------------------------------------------ *)

let run_client ?(config = Config.default) ~capacity files =
  let cache = Client_cache.create ~config ~capacity () in
  Array.iter (fun f -> ignore (Client_cache.access cache f)) files;
  Client_cache.metrics cache

let lru_misses ~capacity files =
  let cache = Agg_cache.Cache.create Agg_cache.Cache.Lru ~capacity in
  Array.fold_left (fun acc f -> if Agg_cache.Cache.access cache f then acc else acc + 1) 0 files

let test_client_g1_equals_lru_crafted () =
  let files = [| 1; 2; 3; 1; 2; 4; 1; 5; 2; 3 |] in
  let config = Config.with_group_size 1 Config.default in
  let m = run_client ~config ~capacity:3 files in
  check_int "demand fetches equal lru misses" (lru_misses ~capacity:3 files) m.Metrics.demand_fetches;
  check_int "no prefetches" 0 m.Metrics.prefetch.Metrics.issued

let test_client_g1_equals_lru_generated () =
  let files = Agg_workload.Generator.generate_files ~seed:3 ~events:8000 Agg_workload.Profile.server in
  List.iter
    (fun capacity ->
      let config = Config.with_group_size 1 Config.default in
      let m = run_client ~config ~capacity files in
      check_int
        (Printf.sprintf "capacity %d" capacity)
        (lru_misses ~capacity files) m.Metrics.demand_fetches)
    [ 10; 50; 200 ]

let test_client_metric_identities () =
  let files = Agg_workload.Generator.generate_files ~seed:5 ~events:5000 Agg_workload.Profile.server in
  let m = run_client ~capacity:200 files in
  check_int "accesses" (Array.length files) m.Metrics.accesses;
  check_int "hits+fetches" m.Metrics.accesses (m.Metrics.hits + m.Metrics.demand_fetches);
  check_bool "used <= issued" true
    (m.Metrics.prefetch.Metrics.used <= m.Metrics.prefetch.Metrics.issued);
  check_bool "evicted_unused <= issued" true
    (m.Metrics.prefetch.Metrics.evicted_unused <= m.Metrics.prefetch.Metrics.issued)

let test_metrics_zero_access_edge_cases () =
  (* the divide-by-zero corner: a run that never happened must print as
     clean zeros, never nan/inf (satellite of the obs instrumentation PR) *)
  let prefetch = { Metrics.issued = 0; used = 0; evicted_unused = 0 } in
  let client = { Metrics.accesses = 0; hits = 0; demand_fetches = 0; prefetch } in
  let server =
    {
      Metrics.client_accesses = 0;
      server_requests = 0;
      server_hits = 0;
      store_fetches = 0;
      prefetch;
    }
  in
  check_bool "utilisation 0/0 = 0" true (Metrics.prefetch_utilisation prefetch = 0.0);
  check_bool "client hit rate 0/0 = 0" true (Metrics.client_hit_rate client = 0.0);
  check_bool "server hit rate 0/0 = 0" true (Metrics.server_hit_rate server = 0.0);
  let clean s =
    let has needle =
      let n = String.length needle and h = String.length s in
      let rec loop i = i + n <= h && (String.sub s i n = needle || loop (i + 1)) in
      loop 0
    in
    (not (has "nan")) && not (has "inf")
  in
  check_bool "pp_client prints no nan/inf" true
    (clean (Format.asprintf "%a" Metrics.pp_client client));
  check_bool "pp_server prints no nan/inf" true
    (clean (Format.asprintf "%a" Metrics.pp_server server))

let test_client_grouping_helps_on_runs () =
  (* a strongly sequential workload: grouping must cut demand fetches *)
  let prng = Agg_util.Prng.create ~seed:1 () in
  let trace = Agg_trace.Trace.create () in
  for _ = 1 to 3000 do
    let task = Agg_util.Prng.int prng 50 in
    for i = 0 to 7 do
      Agg_trace.Trace.add_access trace ((task * 8) + i)
    done
  done;
  let files = Agg_trace.Trace.files trace in
  let lru = (run_client ~config:(Config.with_group_size 1 Config.default) ~capacity:64 files).Metrics.demand_fetches in
  let g5 = (run_client ~capacity:64 files).Metrics.demand_fetches in
  check_bool "g5 reduces fetches by at least 40%" true (float_of_int g5 < 0.6 *. float_of_int lru)

let test_client_prefetch_accounting_on_perfect_sequence () =
  (* deterministic cycle through twice the cache capacity: misses keep
     occurring, and every speculative member is demanded before eviction *)
  let files = Array.init 1000 (fun i -> i mod 10) in
  let m = run_client ~capacity:5 files in
  check_bool "some prefetches issued" true (m.Metrics.prefetch.Metrics.issued > 0);
  check_bool "all used (nothing evicted unused)" true
    (m.Metrics.prefetch.Metrics.evicted_unused = 0)

let test_client_head_position_also_works () =
  let files = Agg_workload.Generator.generate_files ~seed:5 ~events:5000 Agg_workload.Profile.server in
  let config = { Config.default with member_position = Config.Head } in
  let m = run_client ~config ~capacity:300 files in
  let lru = lru_misses ~capacity:300 files in
  check_bool "head insertion still beats lru" true (m.Metrics.demand_fetches < lru)

let test_client_run_accumulates () =
  let cache = Client_cache.create ~capacity:10 () in
  let t = Agg_trace.Trace.of_files [ 1; 2; 3 ] in
  let m1 = Client_cache.run cache t in
  let m2 = Client_cache.run cache t in
  check_int "first pass" 3 m1.Metrics.accesses;
  check_int "accumulated" 6 m2.Metrics.accesses

let test_client_resident_probe () =
  let cache = Client_cache.create ~capacity:10 () in
  ignore (Client_cache.access cache 1);
  check_bool "resident" true (Client_cache.resident cache 1);
  check_bool "absent" false (Client_cache.resident cache 2)

(* --- Adaptive_client ---------------------------------------------------------- *)

let test_adaptive_grows_on_predictable_workload () =
  (* long deterministic runs: speculation always pays, so the controller
     should push the group size to its maximum *)
  let prng = Agg_util.Prng.create ~seed:2 () in
  let trace = Agg_trace.Trace.create () in
  for _ = 1 to 4000 do
    let task = Agg_util.Prng.int prng 60 in
    for i = 0 to 9 do
      Agg_trace.Trace.add_access trace ((task * 10) + i)
    done
  done;
  let adaptive = Adaptive_client.create ~min_group:1 ~max_group:8 ~window:100 ~capacity:80 () in
  ignore (Adaptive_client.run adaptive trace);
  check_int "converges to max" 8 (Adaptive_client.current_group_size adaptive)

let test_adaptive_shrinks_on_random_workload () =
  let prng = Agg_util.Prng.create ~seed:3 () in
  let files = Array.init 30000 (fun _ -> Agg_util.Prng.int prng 50000) in
  let adaptive = Adaptive_client.create ~min_group:1 ~max_group:8 ~window:100 ~capacity:100 () in
  Array.iter (fun f -> ignore (Adaptive_client.access adaptive f)) files;
  (* pure noise: prefetches never get used, so the group shrinks to 1 *)
  check_int "converges to min" 1 (Adaptive_client.current_group_size adaptive)

let test_adaptive_respects_bounds () =
  let files = Agg_workload.Generator.generate_files ~seed:4 ~events:10000 Agg_workload.Profile.server in
  let adaptive = Adaptive_client.create ~min_group:2 ~max_group:4 ~window:50 ~capacity:200 () in
  Array.iter (fun f -> ignore (Adaptive_client.access adaptive f)) files;
  List.iter
    (fun (_, g) -> check_bool "within bounds" true (g >= 2 && g <= 4))
    (Adaptive_client.trajectory adaptive);
  let g = Adaptive_client.current_group_size adaptive in
  check_bool "final within bounds" true (g >= 2 && g <= 4)

let test_adaptive_fixed_when_range_degenerate () =
  let files = Agg_workload.Generator.generate_files ~seed:4 ~events:5000 Agg_workload.Profile.server in
  let adaptive = Adaptive_client.create ~min_group:5 ~max_group:5 ~capacity:200 () in
  Array.iter (fun f -> ignore (Adaptive_client.access adaptive f)) files;
  check_int "never moves" 5 (Adaptive_client.current_group_size adaptive);
  check_int "no adaptations" 0 (List.length (Adaptive_client.trajectory adaptive))

let test_adaptive_validation () =
  Alcotest.check_raises "inverted range"
    (Invalid_argument "Adaptive_client.create: need 0 < min_group <= max_group") (fun () ->
      ignore (Adaptive_client.create ~min_group:5 ~max_group:2 ~capacity:10 ()));
  Alcotest.check_raises "bad window"
    (Invalid_argument "Adaptive_client.create: window must be positive") (fun () ->
      ignore (Adaptive_client.create ~window:0 ~capacity:10 ()))

let test_set_group_size () =
  let cache = Client_cache.create ~capacity:10 () in
  check_int "initial" 5 (Client_cache.group_size cache);
  Client_cache.set_group_size cache 2;
  check_int "updated" 2 (Client_cache.group_size cache);
  Alcotest.check_raises "invalid"
    (Invalid_argument "Client_cache.set_group_size: group size must be positive") (fun () ->
      Client_cache.set_group_size cache 0)

(* --- Server_cache ------------------------------------------------------------- *)

let server_trace () =
  Agg_workload.Generator.generate ~seed:7 ~events:8000 Agg_workload.Profile.server

let test_server_plain_lru_matches_multilevel () =
  let trace = server_trace () in
  let sim =
    Server_cache.create ~filter_kind:Agg_cache.Cache.Lru ~filter_capacity:100 ~server_capacity:50
      ~scheme:(Server_cache.Plain Agg_cache.Cache.Lru) ()
  in
  let m = Server_cache.run sim trace in
  (* reference: the oracle's list-based two-level model *)
  let reference =
    Agg_oracle.Model_system.Server.(
      run
        (create ~filter_kind:Agg_cache.Cache.Lru ~filter_capacity:100 ~server_capacity:50
           ~scheme:(Server_cache.Plain Agg_cache.Cache.Lru) ())
        trace)
  in
  check_int "requests match" reference.Metrics.server_requests m.Metrics.server_requests;
  check_int "hits match" reference.Metrics.server_hits m.Metrics.server_hits

let test_server_metric_identities () =
  let trace = server_trace () in
  let sim =
    Server_cache.create ~filter_kind:Agg_cache.Cache.Lru ~filter_capacity:150 ~server_capacity:100
      ~scheme:(Server_cache.Aggregating Config.default) ()
  in
  let m = Server_cache.run sim trace in
  check_int "client accesses" (Agg_trace.Trace.length trace) m.Metrics.client_accesses;
  check_bool "requests <= accesses" true (m.Metrics.server_requests <= m.Metrics.client_accesses);
  check_bool "hits <= requests" true (m.Metrics.server_hits <= m.Metrics.server_requests);
  check_bool "store fetches >= misses" true
    (m.Metrics.store_fetches >= m.Metrics.server_requests - m.Metrics.server_hits)

let test_server_aggregating_beats_plain_under_filtering () =
  let trace = server_trace () in
  let hit_rate scheme =
    let sim =
      Server_cache.create ~filter_kind:Agg_cache.Cache.Lru ~filter_capacity:400 ~server_capacity:300
        ~scheme ()
    in
    Metrics.server_hit_rate (Server_cache.run sim trace)
  in
  let agg = hit_rate (Server_cache.Aggregating Config.default) in
  let plain = hit_rate (Server_cache.Plain Agg_cache.Cache.Lru) in
  check_bool "aggregating much better than lru when filter >= server" true (agg > plain +. 0.1)

let test_server_outcomes () =
  let sim =
    Server_cache.create ~filter_kind:Agg_cache.Cache.Lru ~filter_capacity:1 ~server_capacity:4
      ~scheme:(Server_cache.Plain Agg_cache.Cache.Lru) ()
  in
  check_bool "cold miss" true (Server_cache.access sim 1 = Server_cache.Server_miss);
  check_bool "client hit" true (Server_cache.access sim 1 = Server_cache.Client_hit);
  ignore (Server_cache.access sim 2);
  (* 1 falls out of the 1-entry client; server still has it *)
  check_bool "server hit" true (Server_cache.access sim 1 = Server_cache.Server_hit)

let test_server_cooperative_metadata () =
  (* with a filter big enough to absorb repeats, a non-cooperative server
     never learns successions (few misses), while a cooperative one sees
     every access; on a cyclic workload cooperation must not hurt *)
  let trace = Agg_trace.Trace.of_files (List.concat (List.init 200 (fun _ -> [ 1; 2; 3; 4; 5 ]))) in
  let rate cooperative =
    let sim =
      Server_cache.create ~cooperative ~filter_kind:Agg_cache.Cache.Lru ~filter_capacity:3
        ~server_capacity:4 ~scheme:(Server_cache.Aggregating Config.default) ()
    in
    Metrics.server_hit_rate (Server_cache.run sim trace)
  in
  check_bool "cooperative at least as good" true (rate true >= rate false -. 1e-9)

(* --- qcheck properties ------------------------------------------------------------ *)

let qcheck_tests =
  let open QCheck in
  let files_gen = list_of_size (Gen.int_range 20 400) (int_range 0 40) in
  [
    Test.make ~name:"g=1 aggregating cache is exactly LRU" ~count:80
      (pair files_gen (int_range 1 20))
      (fun (files, capacity) ->
        let files = Array.of_list files in
        let config = Config.with_group_size 1 Config.default in
        let m = run_client ~config ~capacity files in
        m.Metrics.demand_fetches = lru_misses ~capacity files
        && m.Metrics.prefetch.Metrics.issued = 0);
    Test.make ~name:"group builder output bounded, unique, anchored" ~count:80
      (pair files_gen (int_range 1 10))
      (fun (files, size) ->
        let t = Agg_successor.Tracker.create () in
        List.iter (fun f -> Agg_successor.Tracker.observe t f) files;
        List.for_all
          (fun root ->
            match Group_builder.build t ~group_size:size root with
            | anchor :: rest ->
                anchor = root
                && List.length rest <= size - 1
                && (not (List.mem root rest))
                && List.length (List.sort_uniq compare rest) = List.length rest
            | [] -> false)
          (List.sort_uniq compare files));
    Test.make ~name:"client metrics identities hold on random traces" ~count:60
      (pair files_gen (int_range 2 20))
      (fun (files, capacity) ->
        let files = Array.of_list files in
        let m = run_client ~capacity files in
        m.Metrics.accesses = Array.length files
        && m.Metrics.hits + m.Metrics.demand_fetches = m.Metrics.accesses
        && m.Metrics.prefetch.Metrics.used + m.Metrics.prefetch.Metrics.evicted_unused
           <= m.Metrics.prefetch.Metrics.issued);
  ]

let () =
  Alcotest.run "agg_core"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "validation" `Quick test_config_validation;
        ] );
      ( "group_builder",
        [
          Alcotest.test_case "group of one" `Quick test_builder_group_of_one;
          Alcotest.test_case "small groups immediate" `Quick test_builder_small_groups_use_immediate;
          Alcotest.test_case "large groups chain" `Quick test_builder_large_groups_chain;
          Alcotest.test_case "chain fallback" `Quick test_builder_chain_fallback;
          Alcotest.test_case "no metadata" `Quick test_builder_no_metadata;
          Alcotest.test_case "never duplicates" `Quick test_builder_never_duplicates;
          Alcotest.test_case "invalid size" `Quick test_builder_invalid;
        ] );
      ( "client_cache",
        [
          Alcotest.test_case "g1 = lru (crafted)" `Quick test_client_g1_equals_lru_crafted;
          Alcotest.test_case "g1 = lru (generated)" `Quick test_client_g1_equals_lru_generated;
          Alcotest.test_case "metric identities" `Quick test_client_metric_identities;
          Alcotest.test_case "zero-access printing" `Quick test_metrics_zero_access_edge_cases;
          Alcotest.test_case "grouping helps on runs" `Quick test_client_grouping_helps_on_runs;
          Alcotest.test_case "perfect sequence accounting" `Quick
            test_client_prefetch_accounting_on_perfect_sequence;
          Alcotest.test_case "head position" `Quick test_client_head_position_also_works;
          Alcotest.test_case "run accumulates" `Quick test_client_run_accumulates;
          Alcotest.test_case "resident probe" `Quick test_client_resident_probe;
        ] );
      ( "adaptive_client",
        [
          Alcotest.test_case "grows on predictable workload" `Quick
            test_adaptive_grows_on_predictable_workload;
          Alcotest.test_case "shrinks on random workload" `Quick
            test_adaptive_shrinks_on_random_workload;
          Alcotest.test_case "respects bounds" `Quick test_adaptive_respects_bounds;
          Alcotest.test_case "degenerate range is fixed" `Quick
            test_adaptive_fixed_when_range_degenerate;
          Alcotest.test_case "validation" `Quick test_adaptive_validation;
          Alcotest.test_case "set_group_size" `Quick test_set_group_size;
        ] );
      ( "server_cache",
        [
          Alcotest.test_case "plain lru matches multilevel" `Quick
            test_server_plain_lru_matches_multilevel;
          Alcotest.test_case "metric identities" `Quick test_server_metric_identities;
          Alcotest.test_case "aggregating beats plain" `Quick
            test_server_aggregating_beats_plain_under_filtering;
          Alcotest.test_case "outcomes" `Quick test_server_outcomes;
          Alcotest.test_case "cooperative metadata" `Quick test_server_cooperative_metadata;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
