(* Tests for the declarative scenario engine: the strict text codec and
   its round-trip law, the executor's invariant checks, the corpus
   (which must stay green at CI size, with the known-bad entry failing),
   and the fuzz/shrink discipline pinned to an exact minimal scenario. *)

open Agg_scenario
module Plan = Agg_faults.Plan
module Cache = Agg_cache.Cache

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

(* The corpus directory: [../scenarios] from the test's cwd under
   `dune runtest` (_build/.../test), [scenarios] under `dune exec` from
   the project root. *)
let corpus_dir = if Sys.file_exists "../scenarios" then "../scenarios" else "scenarios"

let base =
  {
    Scenario.name = "crafted";
    workload = Scenario.Profile { profile = "workstation"; events = 2000; seed = 3 };
    topology = Scenario.Fleet { clients = 2; client_capacity = 100; server_capacity = 200 };
    faults = Plan.none;
    policies = [ Scenario.Plain Cache.Lru; Scenario.Group 5 ];
    invariants = Scenario.all_invariants;
    expectations = [];
    slos = [];
    expect_violation = false;
  }

(* --- codec --------------------------------------------------------------- *)

let roundtrip s =
  match Scenario.of_string (Scenario.to_string s) with
  | Ok s' -> s'
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg

let test_roundtrip_crafted () =
  let cluster =
    {
      base with
      Scenario.name = "crafted-cluster";
      topology =
        Scenario.Cluster
          {
            nodes = 5;
            replicas = 3;
            placement = Agg_cluster.Cluster.Replicated_with_group;
            ring_seed = 23;
            clients = 6;
            client_capacity = 150;
            node_capacity = 300;
            churn = [ (500, Agg_cluster.Cluster.Leave 2); (900, Agg_cluster.Cluster.Join 2) ];
          };
      faults = Plan.default;
      policies = [ Scenario.Plain Cache.Arc; Scenario.Group 1; Scenario.Group 10 ];
      expectations =
        [
          Scenario.Hit_rate_min { policy = Scenario.Group 10; percent = 12.5 };
          Scenario.Hit_rate_max { policy = Scenario.Plain Cache.Arc; percent = 99.0 };
        ];
      slos =
        [
          { Scenario.slo_metric = Scenario.Slo_hit_rate; slo_policy = Scenario.Group 10;
            slo_bound = `Min 12.5; slo_window = 1000; slo_after = 2000 };
          { Scenario.slo_metric = Scenario.Slo_degraded_rate;
            slo_policy = Scenario.Plain Cache.Arc; slo_bound = `Max 40.0; slo_window = 1000;
            slo_after = 0 };
        ];
      expect_violation = true;
    }
  in
  List.iter
    (fun s -> check_bool "round-trips" true (roundtrip s = s))
    [ base; cluster; { base with Scenario.topology = Scenario.Path { client_capacity = 10; server_capacity = 20 } } ]

let test_roundtrip_comments_skipped () =
  let text = Scenario.to_string base in
  let with_comments = "#scenario v1\n# a comment\n\n" ^ String.concat "\n" (List.tl (String.split_on_char '\n' text)) in
  match Scenario.of_string with_comments with
  | Ok s -> check_bool "comments and blanks ignored" true (s = base)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let expect_error text fragment =
  match Scenario.of_string text with
  | Ok _ -> Alcotest.failf "expected a parse error containing %S" fragment
  | Error msg ->
      check_bool (Printf.sprintf "error %S contains %S" msg fragment) true
        (contains ~needle:fragment msg)

let test_codec_rejections () =
  let hdr = "#scenario v1\n" in
  let errors =
    [
      ("name x\n", "line 1: expected");
      (hdr ^ "bogus 1\n", "line 2: unknown line keyword \"bogus\"");
      (hdr ^ "workload profile name=server events=5 seed=1 extra=2\n", "unknown field \"extra\"");
      (hdr ^ "workload profile name=server events=5\n", "missing field \"seed\"");
      (hdr ^ "workload profile name=server events=five seed=1\n", "not an integer");
      (hdr ^ "workload profile name=server events=5 seed=1 events=6\n", "duplicate field \"events\"");
      (hdr ^ "workload profile junk\n", "expected key=value");
      (hdr ^ "topology ring x=1\n", "unknown topology \"ring\"");
      (hdr ^ "churn time=5 op=leave node=0\n", "churn is only valid after a cluster topology");
      (hdr ^ "policy turbo\n", "unknown policy \"turbo\"");
      (hdr ^ "invariant sorted\n", "unknown invariant \"sorted\"");
      (hdr ^ "expect hit_rate policy=lru min=1 max=2\n", "min or max, not both");
      (hdr ^ "slo\n", "slo needs a metric");
      (hdr ^ "slo tail policy=lru min=1 window=100\n", "unknown slo metric \"tail\"");
      (hdr ^ "slo hit_rate policy=lru min=1 max=2 window=100\n", "min or max, not both");
      (hdr ^ "slo hit_rate policy=lru window=100\n", "slo needs min= or max=");
      (hdr ^ "slo hit_rate policy=lru min=1\n", "missing field \"window\"");
      ( hdr ^ "name a\nname b\n", "line 3: duplicate name line" );
      ("", "line 1: expected");
    ]
  in
  List.iter (fun (text, fragment) -> expect_error text fragment) errors

let test_codec_missing_sections () =
  expect_error "#scenario v1\n" "missing name line";
  expect_error
    "#scenario v1\nname a\nworkload trace file=t.trc\ntopology path client_capacity=1 server_capacity=1\n"
    "missing policy line"

let test_load_file_errors () =
  (match Scenario.load_file (Filename.concat corpus_dir "no-such.scn") with
  | Ok _ -> Alcotest.fail "expected an error for a missing file"
  | Error msg -> check_bool "names the path" true (contains ~needle:"no-such.scn" msg));
  let bad = Filename.temp_file "scenario" ".scn" in
  Out_channel.with_open_text bad (fun oc -> output_string oc "#scenario v1\nname x\nnonsense\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove bad)
    (fun () ->
      match Scenario.load_file bad with
      | Ok _ -> Alcotest.fail "expected an error for a corrupt file"
      | Error msg ->
          check_bool "names path and line" true
            (contains ~needle:bad msg
            && contains ~needle:"line 3" msg))

(* --- validate ------------------------------------------------------------- *)

let test_validate () =
  let raises what t =
    match Scenario.validate t with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "validate accepted %s" what
  in
  Scenario.validate base;
  raises "empty policies" { base with Scenario.policies = [] };
  raises "duplicate policy"
    { base with Scenario.policies = [ Scenario.Group 5; Scenario.Group 5 ] };
  raises "duplicate invariant"
    { base with Scenario.invariants = [ Scenario.Conservation; Scenario.Conservation ] };
  raises "orphan expectation"
    { base with
      Scenario.expectations = [ Scenario.Hit_rate_min { policy = Scenario.Group 9; percent = 1.0 } ] };
  raises "percent out of range"
    { base with
      Scenario.expectations =
        [ Scenario.Hit_rate_min { policy = Scenario.Plain Cache.Lru; percent = 101.0 } ] };
  raises "bad fault plan" { base with Scenario.faults = { Plan.none with Plan.loss_rate = 1.5 } };
  raises "zero clients"
    { base with
      Scenario.topology = Scenario.Fleet { clients = 0; client_capacity = 1; server_capacity = 1 } };
  raises "bad name" { base with Scenario.name = "has space" };
  let slo ?(metric = Scenario.Slo_hit_rate) ?(policy = Scenario.Group 5)
      ?(bound = `Min 10.0) ?(window = 500) ?(after = 0) () =
    { Scenario.slo_metric = metric; slo_policy = policy; slo_bound = bound;
      slo_window = window; slo_after = after }
  in
  Scenario.validate { base with Scenario.slos = [ slo () ] };
  raises "duplicate slo" { base with Scenario.slos = [ slo (); slo () ] };
  raises "mixed slo windows"
    { base with Scenario.slos = [ slo (); slo ~metric:Scenario.Slo_degraded_rate ~window:1000 () ] };
  raises "non-positive slo window" { base with Scenario.slos = [ slo ~window:0 () ] };
  raises "negative slo after" { base with Scenario.slos = [ slo ~after:(-1) () ] };
  raises "slo rate bound out of range"
    { base with Scenario.slos = [ slo ~bound:(`Min 150.0) () ] };
  raises "orphan slo policy" { base with Scenario.slos = [ slo ~policy:(Scenario.Group 9) () ] };
  raises "p99 latency slo on a fleet"
    { base with Scenario.slos = [ slo ~metric:Scenario.Slo_p99_latency ~bound:(`Max 50.0) () ] };
  Scenario.validate
    { base with
      Scenario.topology = Scenario.Path { client_capacity = 100; server_capacity = 200 };
      slos = [ slo ~metric:Scenario.Slo_p99_latency ~bound:(`Max 50.0) () ] }

(* --- qcheck: codec round-trip over generated scenarios -------------------- *)

let gen_scenario =
  let open QCheck.Gen in
  let name_gen =
    let* n = int_range 1 12 in
    let* chars = list_size (return n) (oneofl [ 'a'; 'b'; 'z'; '0'; '7'; '-'; '_'; '.' ]) in
    return (String.init n (List.nth chars))
  in
  let policy_gen =
    oneof
      [
        map (fun k -> Scenario.Plain k) (oneofl Cache.all_kinds);
        map (fun g -> Scenario.Group g) (int_range 1 16);
      ]
  in
  let rate_gen =
    oneof
      [ oneofl [ 0.0; 0.1; 0.25; 0.5; 1.0 ]; map (fun n -> float_of_int n /. 997.0) (int_range 0 997) ]
  in
  let workload_gen =
    oneof
      [
        (let* profile = oneofl [ "workstation"; "users"; "write"; "server"; "scientific"; "streaming" ] in
         let* events = int_range 100 50_000 in
         let* seed = int_range 0 1_000_000 in
         return (Scenario.Profile { profile; events; seed }));
        map (fun f -> Scenario.Trace_file { file = "traces/" ^ f ^ ".trc" }) name_gen;
        (let* format = oneofl [ Agg_trace.Import.Paths; Agg_trace.Import.Strace ] in
         let* f = name_gen in
         return (Scenario.Import_file { format; file = f }));
      ]
  in
  let topology_gen =
    oneof
      [
        (let* c = int_range 1 500 and* s = int_range 1 2000 in
         return (Scenario.Path { client_capacity = c; server_capacity = s }));
        (let* n = int_range 1 32 and* c = int_range 1 500 and* s = int_range 1 2000 in
         return (Scenario.Fleet { clients = n; client_capacity = c; server_capacity = s }));
        (let* nodes = int_range 1 9 in
         let* replicas = int_range 1 nodes in
         let* placement = oneofl Agg_cluster.Cluster.placements in
         let* ring_seed = int_range 0 10_000 in
         let* clients = int_range 1 32 in
         let* client_capacity = int_range 1 500 in
         let* node_capacity = int_range 1 2000 in
         let* churn =
           list_size (int_range 0 3)
             (let* time = int_range 0 10_000 in
              let* node = int_range 0 (nodes - 1) in
              let* op =
                oneofl [ (fun n -> Agg_cluster.Cluster.Join n); (fun n -> Agg_cluster.Cluster.Leave n) ]
              in
              return (time, op node))
         in
         return
           (Scenario.Cluster
              { nodes; replicas; placement; ring_seed; clients; client_capacity; node_capacity; churn }));
      ]
  in
  let faults_gen =
    let* seed = int_range 0 1_000_000 in
    let* loss_rate = rate_gen in
    let* outage_period = oneofl [ 0; 500; 2000 ] in
    let* outage_rate = rate_gen in
    let* outage_length = int_range 0 500 in
    let* slow_rate = rate_gen in
    let* slow_multiplier = map (fun n -> 1.0 +. (float_of_int n /. 10.0)) (int_range 0 40) in
    let* crash_rate = rate_gen in
    return
      { Plan.seed; loss_rate; outage_period; outage_rate; outage_length; slow_rate;
        slow_multiplier; crash_rate }
  in
  let* name = name_gen in
  let* workload = workload_gen in
  let* topology = topology_gen in
  let* faults = faults_gen in
  let* policies = list_size (int_range 1 5) policy_gen in
  (* the codec does not require a valid matrix, but keep names distinct so
     structural equality is meaningful *)
  let policies =
    List.sort_uniq (fun a b -> String.compare (Scenario.policy_name a) (Scenario.policy_name b)) policies
  in
  let* invariants =
    QCheck.Gen.map
      (fun mask -> List.filteri (fun idx _ -> List.nth mask idx) Scenario.all_invariants)
      (list_size (return (List.length Scenario.all_invariants)) bool)
  in
  let* expectations =
    list_size (int_range 0 2)
      (let* policy = oneofl (Array.of_list policies |> Array.to_list) in
       let* percent = map (fun n -> float_of_int n /. 10.0) (int_range 0 1000) in
       let* kind = bool in
       return
         (if kind then Scenario.Hit_rate_min { policy; percent }
          else Scenario.Hit_rate_max { policy; percent }))
  in
  let* expect_violation = bool in
  let* slos =
    let* window = oneofl [ 250; 1000; 4000 ] in
    list_size (int_range 0 2)
      (let* slo_policy = oneofl (Array.of_list policies |> Array.to_list) in
       let* slo_metric = oneofl Scenario.all_slo_metrics in
       let* v = map (fun n -> float_of_int n /. 10.0) (int_range 0 1000) in
       let* kind = bool in
       let* slo_after = oneofl [ 0; 500; 2000 ] in
       return
         {
           Scenario.slo_metric;
           slo_policy;
           slo_bound = (if kind then `Min v else `Max v);
           slo_window = window;
           slo_after;
         })
  in
  (* the round-trip law needs distinct lines, like the policy matrix *)
  let slos =
    List.sort_uniq (fun a b -> String.compare (Scenario.slo_name a) (Scenario.slo_name b)) slos
  in
  return
    { Scenario.name; workload; topology; faults; policies; invariants; expectations; slos;
      expect_violation }

let qcheck_tests =
  let arb = QCheck.make ~print:Scenario.to_string gen_scenario in
  [
    QCheck.Test.make ~name:"of_string (to_string s) = Ok s" ~count:300 arb (fun s ->
        match Scenario.of_string (Scenario.to_string s) with
        | Ok s' -> s' = s
        | Error _ -> false);
    QCheck.Test.make ~name:"one-line errors carry a line number" ~count:100 arb (fun s ->
        let text = Scenario.to_string s ^ "mystery line\n" in
        match Scenario.of_string text with
        | Ok _ -> false
        | Error msg ->
            (not (String.contains msg '\n'))
            && String.length msg > 5
            && String.sub msg 0 5 = "line ");
  ]

(* --- executor ------------------------------------------------------------- *)

let run_ok ?jobs ?events_cap s =
  match Exec.run ?jobs ?events_cap s with
  | Ok o -> o
  | Error msg -> Alcotest.failf "Exec.run failed: %s" msg

let test_exec_invariants_pass () =
  let o = run_ok base in
  check_int "one cell per policy" (List.length base.Scenario.policies) (List.length o.Exec.cells);
  check_int "one check per invariant" (List.length base.Scenario.invariants)
    (List.length o.Exec.checks);
  check_bool "all invariants pass" true o.Exec.pass;
  check_bool "verdict ok" true o.Exec.ok;
  List.iter
    (fun (c : Exec.cell) ->
      check_bool "accesses metric present" true (Exec.metric c "accesses" = Some 2000.0))
    o.Exec.cells

let test_exec_expectation_failure () =
  let failing =
    { base with
      Scenario.expectations =
        [ Scenario.Hit_rate_min { policy = Scenario.Plain Cache.Lru; percent = 99.5 } ] }
  in
  let o = run_ok failing in
  check_bool "fails the expectation" false o.Exec.pass;
  check_bool "verdict not ok" false o.Exec.ok;
  let o' = run_ok { failing with Scenario.expect_violation = true } in
  check_bool "still failing" false o'.Exec.pass;
  check_bool "but ok when violation is expected" true o'.Exec.ok

let test_exec_trace_file_errors () =
  let missing =
    { base with Scenario.workload = Scenario.Trace_file { file = "no-such-trace.trc" } }
  in
  (match Exec.run missing with
  | Ok _ -> Alcotest.fail "expected an error for a missing trace"
  | Error msg ->
      check_bool "names the trace path" true
        (contains ~needle:"no-such-trace.trc" msg));
  let bad = Filename.temp_file "trace" ".trc" in
  Out_channel.with_open_text bad (fun oc -> output_string oc "#aggtrace v1\ngarbage here\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove bad)
    (fun () ->
      match Exec.run { base with Scenario.workload = Scenario.Trace_file { file = bad } } with
      | Ok _ -> Alcotest.fail "expected an error for a corrupt trace"
      | Error msg ->
          check_bool "reports path and line" true
            (contains ~needle:bad msg
            && contains ~needle:"line 2" msg))

(* A sparse file id must cost memory for the files the trace touches, not
   for the size of the id: the id 400000000 once made the path replay
   allocate tables indexed up to it and die with Out_of_memory. *)
let test_exec_sparse_id_path () =
  let trc = Filename.temp_file "sparse" ".trc" in
  Out_channel.with_open_text trc (fun oc ->
      output_string oc "#aggtrace v1\n0 o 0 400000000\n1 o 0 7\n2 o 0 400000000\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove trc)
    (fun () ->
      let s =
        {
          base with
          Scenario.workload = Scenario.Trace_file { file = trc };
          topology = Scenario.Path { client_capacity = 300; server_capacity = 1000 };
          invariants = [ Scenario.Conservation ];
        }
      in
      (* an empty minor heap: objects allocated before the window are
         not promoted, and so not counted, inside it *)
      Gc.full_major ();
      let before = Gc.allocated_bytes () in
      let o = run_ok s in
      let allocated = Gc.allocated_bytes () -. before in
      check_bool "all invariants pass" true o.Exec.pass;
      check_int "three accesses" 3 o.Exec.events;
      (* 0.84 MB, most of it the two cells' fixed-size tracker and
         cache tables *)
      if allocated > 1_048_576.0 then
        Alcotest.failf "sparse-id path scenario allocated %.0f bytes, ceiling 1 MiB" allocated)

(* The same three-line trace through a replicated cluster: the cluster
   replay once sized its caches, trackers and tables by the raw id and
   died with Out_of_memory the same way. *)
let test_exec_sparse_id_cluster () =
  let trc = Filename.temp_file "sparse" ".trc" in
  Out_channel.with_open_text trc (fun oc ->
      output_string oc "#aggtrace v1\n0 o 0 400000000\n1 o 0 7\n2 o 0 400000000\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove trc)
    (fun () ->
      let s =
        {
          base with
          Scenario.workload = Scenario.Trace_file { file = trc };
          topology =
            Scenario.Cluster
              {
                nodes = 3;
                replicas = 2;
                placement = Agg_cluster.Cluster.Replicated_with_group;
                ring_seed = 23;
                clients = 2;
                client_capacity = 150;
                node_capacity = 300;
                churn = [];
              };
          invariants = [ Scenario.Conservation ];
        }
      in
      Gc.full_major ();
      let before = Gc.allocated_bytes () in
      let o = run_ok s in
      let allocated = Gc.allocated_bytes () -. before in
      check_bool "all invariants pass" true o.Exec.pass;
      check_int "three accesses" 3 o.Exec.events;
      (* measured at 3.5 MB, most of it the fixed-size tracker tables
         of every node and client in the two cells *)
      if allocated > 4_194_304.0 then
        Alcotest.failf "sparse-id cluster scenario allocated %.0f bytes, ceiling 4 MiB" allocated)

let test_exec_unknown_profile () =
  match Exec.run { base with Scenario.workload = Scenario.Profile { profile = "nope"; events = 100; seed = 1 } } with
  | Ok _ -> Alcotest.fail "expected an unknown-profile error"
  | Error msg -> check_bool "names the profile" true (contains ~needle:"nope" msg)

(* SLO rules evaluate the per-cell series windows; a trivially satisfiable
   bound passes (reporting how many windows were checked) and an impossible
   one fails pinning the first violating window's access range. *)
let test_exec_slo_pass_and_fail () =
  let slo bound =
    { Scenario.slo_metric = Scenario.Slo_hit_rate; slo_policy = Scenario.Group 5;
      slo_bound = bound; slo_window = 500; slo_after = 0 }
  in
  let find_check (o : Exec.outcome) needle =
    match
      List.find_opt (fun (c : Exec.check) -> contains ~needle c.Exec.check_name) o.Exec.checks
    with
    | Some c -> c
    | None -> Alcotest.failf "no check named like %S" needle
  in
  (* cells carry a series only when slo rules ask for one *)
  let plain = run_ok base in
  List.iter
    (fun (c : Exec.cell) -> check_bool "no series without slos" true (c.Exec.series = None))
    plain.Exec.cells;
  let good = run_ok { base with Scenario.slos = [ slo (`Min 0.0) ] } in
  List.iter
    (fun (c : Exec.cell) -> check_bool "series present with slos" true (c.Exec.series <> None))
    good.Exec.cells;
  let c = find_check good "slo hit_rate" in
  check_bool "satisfiable slo passes" true c.Exec.pass;
  check_bool "detail counts the windows" true (contains ~needle:"windows checked" c.Exec.detail);
  check_bool "outcome ok" true good.Exec.ok;
  let bad = run_ok { base with Scenario.slos = [ slo (`Min 99.9) ] } in
  let c = find_check bad "slo hit_rate" in
  check_bool "impossible slo fails" false c.Exec.pass;
  check_bool "detail pins window 0" true
    (contains ~needle:"window 0 (accesses 0..499)" c.Exec.detail);
  check_bool "detail names the metric" true (contains ~needle:"hit_rate=" c.Exec.detail);
  check_bool "outcome fails" false bad.Exec.pass;
  let expected =
    run_ok { base with Scenario.slos = [ slo (`Min 99.9) ]; expect_violation = true }
  in
  check_bool "ok when the violation is expected" true expected.Exec.ok

(* after= skips the cold-start windows: a bound that fails from a cold
   cache can still hold once only warm windows are checked *)
let test_exec_slo_after_skips_warmup () =
  let slo after =
    { Scenario.slo_metric = Scenario.Slo_degraded_rate; slo_policy = Scenario.Plain Cache.Lru;
      slo_bound = `Max 100.0; slo_window = 500; slo_after = after }
  in
  let checked (o : Exec.outcome) =
    match
      List.find_opt
        (fun (c : Exec.check) -> contains ~needle:"slo degraded_rate" c.Exec.check_name)
        o.Exec.checks
    with
    | Some c -> c
    | None -> Alcotest.fail "slo check missing"
  in
  let all = checked (run_ok { base with Scenario.slos = [ slo 0 ] }) in
  let late = checked (run_ok { base with Scenario.slos = [ slo 1500 ] }) in
  check_bool "both pass (max=100 is vacuous)" true (all.Exec.pass && late.Exec.pass);
  let count (c : Exec.check) =
    match String.split_on_char ' ' c.Exec.detail with
    | n :: _ -> int_of_string n
    | [] -> Alcotest.fail "empty detail"
  in
  check_int "after=0 checks every window" 4 (count all);
  check_int "after=1500 drops the first three windows" 1 (count late)

(* --- corpus --------------------------------------------------------------- *)

let corpus () = Agg_sim.Scenarios.corpus_files corpus_dir

let test_corpus_present_and_valid () =
  let files = corpus () in
  check_bool "at least 8 scenarios shipped" true (List.length files >= 8);
  List.iter
    (fun file ->
      match Scenario.load_file file with
      | Error msg -> Alcotest.failf "corpus file broken: %s" msg
      | Ok s -> Scenario.validate s)
    files

let test_corpus_green_fast_sized () =
  let runner =
    Agg_sim.Experiment.Runner.create ~jobs:2 ~settings:Agg_sim.Experiment.quick_settings ()
  in
  let entries = Agg_sim.Scenarios.run_corpus ~events_cap:4000 ~runner corpus_dir in
  check_int "every corpus file executed" (List.length (corpus ())) (List.length entries);
  List.iter
    (fun (e : Agg_sim.Scenarios.entry) ->
      match e.Agg_sim.Scenarios.outcome with
      | Error msg -> Alcotest.failf "%s failed to run: %s" e.Agg_sim.Scenarios.file msg
      | Ok o ->
          check_bool (e.Agg_sim.Scenarios.file ^ " meets its verdict") true o.Exec.ok)
    entries;
  check_bool "all_ok" true (Agg_sim.Scenarios.all_ok entries);
  let json = Agg_sim.Scenarios.json_of_entries entries in
  check_bool "json records the verdict" true
    (contains ~needle:"\"all_ok\": true" json);
  let known_bad =
    List.find
      (fun (e : Agg_sim.Scenarios.entry) ->
        Filename.basename e.Agg_sim.Scenarios.file = "known-bad.scn")
      entries
  in
  match known_bad.Agg_sim.Scenarios.outcome with
  | Ok o ->
      check_bool "known-bad fails its checks" false o.Exec.pass;
      check_bool "known-bad is ok because failure is expected" true o.Exec.ok
  | Error msg -> Alcotest.failf "known-bad failed to run: %s" msg

let test_corpus_jobs_determinism () =
  List.iter
    (fun file ->
      match Scenario.load_file file with
      | Error msg -> Alcotest.failf "%s: %s" file msg
      | Ok s ->
          let render jobs = Exec.render_outcome (run_ok ~jobs ~events_cap:2000 s) in
          check_string (Filename.basename file ^ " jobs=1 vs jobs=4") (render 1) (render 4))
    (corpus ())

(* --- fuzz & shrink -------------------------------------------------------- *)

let pinned_minimal =
  String.concat "\n"
    [
      "#scenario v1";
      "name known-bad";
      "workload profile name=server events=100 seed=7";
      "topology fleet clients=1 client_capacity=150 server_capacity=300";
      "faults seed=11 loss=0 outage_period=0 outage_rate=0 outage_length=0 slow=0 slow_mult=1 crash=0";
      "policy lru";
      "expect hit_rate policy=lru min=99.5";
      "expect violation";
      "";
    ]

let pinned_minimal_slo =
  String.concat "\n"
    [
      "#scenario v1";
      "name known-bad-slo";
      "workload profile name=server events=100 seed=7";
      "topology path client_capacity=300 server_capacity=1000";
      "faults seed=11 loss=0 outage_period=0 outage_rate=0 outage_length=0 slow=0 slow_mult=1 crash=0";
      "policy g5";
      "slo hit_rate policy=g5 min=99 window=500";
      "expect violation";
      "";
    ]

let load_known_bad () =
  match Scenario.load_file (Filename.concat corpus_dir "known-bad.scn") with
  | Ok s -> s
  | Error msg -> Alcotest.failf "known-bad.scn: %s" msg

let test_shrinker_pinned () =
  let bad = load_known_bad () in
  check_bool "known-bad violates" true (Fuzz.violates bad);
  let shrunk = Fuzz.shrink bad in
  check_string "shrinks to the pinned minimal scenario" pinned_minimal
    (Scenario.to_string shrunk);
  check_bool "shrunk still violates" true (Fuzz.violates shrunk);
  check_bool "strictly smaller" true
    (String.length (Scenario.to_string shrunk) < String.length (Scenario.to_string bad));
  (* greedy shrinking is deterministic: a second pass finds nothing more *)
  check_string "idempotent" pinned_minimal (Scenario.to_string (Fuzz.shrink shrunk))

(* the slo-driven known-bad entry shrinks too: the fault plan zeroes out,
   the extra policy and the invariants drop, but the slo (and the policy it
   names) must survive — a cold 500-access window can never hold 99%. *)
let test_shrinker_pinned_slo () =
  let bad =
    match Scenario.load_file (Filename.concat corpus_dir "known-bad-slo.scn") with
    | Ok s -> s
    | Error msg -> Alcotest.failf "known-bad-slo.scn: %s" msg
  in
  check_bool "known-bad-slo violates" true (Fuzz.violates bad);
  let shrunk = Fuzz.shrink bad in
  check_string "shrinks to the pinned minimal scenario" pinned_minimal_slo
    (Scenario.to_string shrunk);
  check_int "slo survives the shrink" 1 (List.length shrunk.Scenario.slos);
  check_string "idempotent" pinned_minimal_slo (Scenario.to_string (Fuzz.shrink shrunk))

let test_fuzz_reports_known_bad () =
  let bad = load_known_bad () in
  let report = Fuzz.run ~seed:5 ~rounds:3 bad in
  check_int "base tested first" 1 report.Fuzz.tested;
  match report.Fuzz.failure with
  | None -> Alcotest.fail "fuzz missed the known-bad violation"
  | Some f ->
      check_string "shrunk form pinned" pinned_minimal (Scenario.to_string f.Fuzz.shrunk);
      let again = Fuzz.run ~seed:5 ~rounds:3 bad in
      check_bool "deterministic for a fixed seed" true
        (match again.Fuzz.failure with
        | Some g -> Scenario.to_string g.Fuzz.shrunk = Scenario.to_string f.Fuzz.shrunk
        | None -> false)

let test_shrink_keeps_healthy_scenario () =
  check_bool "healthy scenario untouched" true (Fuzz.shrink base = base)

let test_perturb_valid () =
  let rng = Agg_util.Prng.create ~seed:9 () in
  let s = ref base in
  for _ = 1 to 50 do
    s := Fuzz.perturb rng !s;
    Scenario.validate !s
  done

(* --- profiles ------------------------------------------------------------- *)

let test_paper_profiles_unchanged () =
  check_int "exactly four paper profiles" 4 (List.length Agg_workload.Profile.all);
  Alcotest.(check (list string))
    "paper profile names pinned"
    [ "workstation"; "users"; "write"; "server" ]
    (List.map (fun p -> p.Agg_workload.Profile.name) Agg_workload.Profile.all)

let test_extra_profiles () =
  Alcotest.(check (list string))
    "extras"
    [ "scientific"; "streaming"; "sized-workstation"; "sized-server" ]
    (List.map (fun p -> p.Agg_workload.Profile.name) Agg_workload.Profile.extras);
  List.iter
    (fun name ->
      match Agg_workload.Profile.by_name name with
      | None -> Alcotest.failf "by_name misses %s" name
      | Some p ->
          let trace = Agg_workload.Generator.generate ~seed:5 ~events:2000 p in
          check_int (name ^ " exact event count") 2000 (Agg_trace.Trace.length trace);
          check_bool
            (name ^ " universe estimate positive")
            true
            (Agg_workload.Profile.distinct_file_estimate p > 0))
    [ "scientific"; "streaming"; "sized-workstation"; "sized-server" ]

let () =
  Alcotest.run "agg_scenario"
    [
      ( "codec",
        [
          Alcotest.test_case "round-trip crafted" `Quick test_roundtrip_crafted;
          Alcotest.test_case "comments skipped" `Quick test_roundtrip_comments_skipped;
          Alcotest.test_case "strict rejections" `Quick test_codec_rejections;
          Alcotest.test_case "missing sections" `Quick test_codec_missing_sections;
          Alcotest.test_case "load_file errors" `Quick test_load_file_errors;
          Alcotest.test_case "validate" `Quick test_validate;
        ] );
      ( "exec",
        [
          Alcotest.test_case "invariants pass" `Quick test_exec_invariants_pass;
          Alcotest.test_case "expectation failure" `Quick test_exec_expectation_failure;
          Alcotest.test_case "trace file errors" `Quick test_exec_trace_file_errors;
          Alcotest.test_case "unknown profile" `Quick test_exec_unknown_profile;
          Alcotest.test_case "sparse-id path" `Quick test_exec_sparse_id_path;
          Alcotest.test_case "sparse-id cluster" `Quick test_exec_sparse_id_cluster;
          Alcotest.test_case "slo pass and fail" `Quick test_exec_slo_pass_and_fail;
          Alcotest.test_case "slo after skips warmup" `Quick test_exec_slo_after_skips_warmup;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "present and valid" `Quick test_corpus_present_and_valid;
          Alcotest.test_case "green fast-sized" `Quick test_corpus_green_fast_sized;
          Alcotest.test_case "jobs determinism" `Quick test_corpus_jobs_determinism;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "shrinker pinned" `Quick test_shrinker_pinned;
          Alcotest.test_case "slo shrinker pinned" `Quick test_shrinker_pinned_slo;
          Alcotest.test_case "fuzz reports known-bad" `Quick test_fuzz_reports_known_bad;
          Alcotest.test_case "healthy untouched" `Quick test_shrink_keeps_healthy_scenario;
          Alcotest.test_case "perturb preserves validity" `Quick test_perturb_valid;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "paper profiles unchanged" `Quick test_paper_profiles_unchanged;
          Alcotest.test_case "extras calibrated" `Quick test_extra_profiles;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
