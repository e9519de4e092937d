(* Tests for Agg_oracle: the reference models themselves, the lockstep
   differential engine, its shrinker, and the seeded-mutant smoke test.
   The heavy end-to-end differential run lives behind `aggsim
   differential` / the @differential alias; here we pin the machinery
   with crafted cases and qcheck state-machine properties. *)

open Agg_oracle
module Policy = Agg_cache.Policy
module Cache = Agg_cache.Cache
module Successor_list = Agg_successor.Successor_list
module Codec = Agg_trace.Codec
module Prng = Agg_util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = if i + n > h then false else String.sub haystack i n = needle || loop (i + 1) in
  loop 0

(* --- Model_cache on its own ------------------------------------------- *)

let unit_insert m ~pos key = Model_cache.insert m ~pos ~weight:Policy.unit_weight key

let test_model_lru_order () =
  let m = Model_cache.create Cache.Lru ~capacity:2 in
  Alcotest.(check (list int)) "no victim" [] (unit_insert m ~pos:Policy.Hot 1);
  Alcotest.(check (list int)) "no victim" [] (unit_insert m ~pos:Policy.Hot 2);
  Model_cache.promote m 1;
  Alcotest.(check (list int)) "lru victim" [ 2 ] (unit_insert m ~pos:Policy.Hot 3);
  check_bool "1 stays" true (Model_cache.mem m 1)

let test_model_cold_insert () =
  let m = Model_cache.create Cache.Lru ~capacity:3 in
  ignore (unit_insert m ~pos:Policy.Hot 1);
  ignore (unit_insert m ~pos:Policy.Cold 2);
  (* the cold member is the first to go *)
  Alcotest.(check (option int)) "cold evicted first" (Some 2) (Model_cache.evict m);
  check_int "size" 1 (Model_cache.size m)

let test_model_random_matches_seeded () =
  (* sharing the seed with the optimized Random policy means victims
     coincide exactly — that is what makes random diffable at all *)
  let m = Model_cache.create Cache.Random ~capacity:4 in
  let r = Agg_cache.Random_policy.create ~capacity:4 in
  for k = 0 to 3 do
    ignore (unit_insert m ~pos:Policy.Hot k);
    ignore (Agg_cache.Random_policy.insert r ~pos:Policy.Hot ~weight:Policy.unit_weight k)
  done;
  for k = 4 to 40 do
    Alcotest.(check (list int))
      "same victim"
      (Agg_cache.Random_policy.insert r ~pos:Policy.Hot ~weight:Policy.unit_weight k)
      (unit_insert m ~pos:Policy.Hot k)
  done

(* --- the differential engine ------------------------------------------ *)

let minimal_mutant_repro =
  [
    Diff_engine.Insert (Policy.Hot, Policy.unit_weight, 1);
    Diff_engine.Insert (Policy.Cold, Policy.unit_weight, 2);
    Diff_engine.Promote 2;
    Diff_engine.Evict;
  ]

let test_mutant_minimal_repro () =
  (* promote-to-cold-end flips the eviction order: correct LRU evicts 1,
     the mutant evicts the just-promoted 2 *)
  check_bool "mutant diverges" true
    (Option.is_some (Diff_engine.diff_ops_mutant ~capacity:2 minimal_mutant_repro));
  check_bool "real LRU agrees with model" true
    (Option.is_none (Diff_engine.diff_ops Cache.Lru ~capacity:2 minimal_mutant_repro))

let test_mutant_caught_by_fuzz () =
  let c = Diff_engine.mutant_check ~seed:3 ~ops:2_000 in
  check_bool "pass means caught" true c.Diff_engine.pass;
  check_bool "reports a shrunk repro" true (contains c.Diff_engine.detail "shrunk repro")

let test_shrunk_repro_still_fails () =
  (* the shrinker must return a failing list, and a 1-minimal one: no
     single further removal may still fail *)
  let prng = Agg_util.Prng.create ~seed:11 () in
  let ops = Diff_engine.gen_ops prng ~universe:12 ~count:400 in
  let fails candidate = Option.is_some (Diff_engine.diff_ops_mutant ~capacity:4 candidate) in
  check_bool "generated ops catch the mutant" true (fails ops);
  let minimal = Diff_engine.shrink_ops fails ops in
  check_bool "shrunk still fails" true (fails minimal);
  check_bool "shrunk no longer than input" true (List.length minimal <= List.length ops);
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) minimal in
      check_bool "1-minimal" false (fails without))
    minimal

let test_shrink_ops_plain_predicate () =
  let ops = List.init 50 (fun i -> if i mod 7 = 0 then Diff_engine.Evict else Diff_engine.Mem i) in
  let fails l = List.length (List.filter (fun o -> o = Diff_engine.Evict) l) >= 3 in
  let minimal = Diff_engine.shrink_ops fails ops in
  check_int "exactly the three needed ops remain" 3 (List.length minimal);
  check_bool "all evicts" true (List.for_all (fun o -> o = Diff_engine.Evict) minimal)

let test_gen_ops_deterministic () =
  let gen seed =
    Diff_engine.gen_ops (Agg_util.Prng.create ~seed ()) ~universe:10 ~count:50
  in
  check_bool "same seed, same ops" true (gen 5 = gen 5);
  check_bool "different seed, different ops" true (gen 5 <> gen 6)

(* --- qcheck: state-machine agreement per policy ----------------------- *)

let op_gen =
  let open QCheck.Gen in
  let key = int_bound 20 in
  frequency
    [
      (5, map (fun k -> Diff_engine.Insert (Policy.Hot, Policy.unit_weight, k)) key);
      (3, map (fun k -> Diff_engine.Insert (Policy.Cold, Policy.unit_weight, k)) key);
      (3, map (fun k -> Diff_engine.Promote k) key);
      (2, return Diff_engine.Evict);
      (2, map (fun k -> Diff_engine.Mem k) key);
      (1, return Diff_engine.Clear);
    ]

(* Shrinks to a minimal reproducible op list via QCheck's list shrinker;
   the printed counterexample is directly replayable through diff_ops. *)
let scenario_arbitrary =
  QCheck.make
    ~print:(fun (capacity, ops) ->
      Printf.sprintf "capacity=%d; %s" capacity (Diff_engine.ops_to_string ops))
    ~shrink:
      QCheck.Shrink.(pair int (list ~shrink:nil))
    QCheck.Gen.(pair (int_range 1 12) (list_size (int_bound 120) op_gen))

let agreement_properties =
  List.map
    (fun kind ->
      QCheck.Test.make
        ~name:(Printf.sprintf "%s agrees with its model on any op sequence" (Cache.kind_name kind))
        ~count:150 scenario_arbitrary
        (fun (capacity, ops) ->
          match Diff_engine.diff_ops kind ~capacity ops with
          | None -> true
          | Some d -> QCheck.Test.fail_reportf "step %d: %s" d.Diff_engine.step d.Diff_engine.detail))
    Cache.all_kinds

(* --- qcheck: exact order and probes of ARC and LFU ---------------------- *)

(* [Diff_engine] compares resident sets. This lockstep pins the two
   adaptive policies harder: after every operation the optimized cache's
   exact [contents] order and its policy-specific probes must equal the
   model's. Keys range over [0, 25], so every probe is checked on every
   key the run can touch. *)
let probe_keys = List.init 26 Fun.id

let exact_lockstep (type c) kind (module P : Policy.S with type t = c) ~model_order
    ~(probes_agree : c -> Model_cache.t -> int -> bool) =
  QCheck.Test.make
    ~name:(Cache.kind_name kind ^ " matches its model's exact order and probes")
    ~count:300
    QCheck.(
      pair (int_range 1 10)
        (list_of_size (Gen.int_bound 200) (pair (int_range 0 49) (int_range 0 25))))
    (fun (capacity, ops) ->
      let real = P.create ~capacity and model = Model_cache.create kind ~capacity in
      let insert pos key =
        P.insert real ~pos ~weight:Policy.unit_weight key
        = Model_cache.insert model ~pos ~weight:Policy.unit_weight key
      in
      List.for_all
        (fun (op, key) ->
          let same =
            if op < 10 then begin
              P.promote real key;
              Model_cache.promote model key;
              true
            end
            else if op < 25 then insert Policy.Hot key
            else if op < 35 then insert Policy.Cold key
            else if op < 41 then P.evict real = Model_cache.evict model
            else if op < 47 then begin
              P.remove real key;
              Model_cache.remove model key;
              true
            end
            else if op < 49 then P.mem real key = Model_cache.mem model key
            else begin
              P.clear real;
              Model_cache.clear model;
              true
            end
          in
          same
          && P.size real = Model_cache.size model
          && P.contents real = model_order model
          && List.for_all (probes_agree real model) probe_keys)
        ops)

let lfu_model_order model =
  Model_cache.lfu_entries model
  |> List.sort (fun (_, c1, t1) (_, c2, t2) -> compare (c2, t2) (c1, t1))
  |> List.map (fun (key, _, _) -> key)

let exact_lockstep_properties =
  [
    exact_lockstep Cache.Arc
      (module Agg_cache.Arc)
      ~model_order:Model_cache.contents
      ~probes_agree:(fun real model key ->
        Agg_cache.Arc.target real = Model_cache.arc_target model
        && Agg_cache.Arc.in_t2 real key = Model_cache.arc_in_t2 model key);
    exact_lockstep Cache.Lfu
      (module Agg_cache.Lfu)
      ~model_order:lfu_model_order
      ~probes_agree:(fun real model key ->
        let count =
          List.find_map
            (fun (k, count, _) -> if k = key then Some count else None)
            (Model_cache.lfu_entries model)
        in
        Agg_cache.Lfu.frequency real key = count);
  ]

(* --- qcheck: exact order of the rent core ------------------------------- *)

(* The rent core keeps its residents in a heap keyed by (priority, recency
   stamp), so its victims and its [contents] order must still be exactly
   those of the list-scanning inflation model. Sizes {1, 2, 4} and costs
   {1, 2} make every priority a small dyadic fraction, so exact priority
   ties are common and the recency tie-break decides most evictions; hot
   and cold re-inserts of residents, removals from the middle of the heap
   and clears all reorder it. After every operation the results, size,
   used total and full recency order must agree. *)
let rent_op_gen =
  let open QCheck.Gen in
  let key = int_bound 11 in
  let weight = map2 (fun size cost -> { Policy.size; cost }) (oneofl [ 1; 2; 4 ]) (oneofl [ 1; 2 ]) in
  frequency
    [
      (5, map2 (fun w k -> Diff_engine.Insert (Policy.Hot, w, k)) weight key);
      (3, map2 (fun w k -> Diff_engine.Insert (Policy.Cold, w, k)) weight key);
      (3, map (fun k -> Diff_engine.Promote k) key);
      (3, map2 (fun k cost -> Diff_engine.Charge (k, cost)) key (oneofl [ 1; 2 ]));
      (2, map (fun k -> Diff_engine.Remove k) key);
      (2, return Diff_engine.Evict);
      (1, return Diff_engine.Clear);
    ]

let apply_op (type a) (module P : Policy.S with type t = a) (state : a) = function
  | Diff_engine.Insert (pos, weight, key) -> P.insert state ~pos ~weight key
  | Diff_engine.Promote key ->
      P.promote state key;
      []
  | Diff_engine.Charge (key, cost) ->
      P.charge state key ~cost;
      []
  | Diff_engine.Evict -> Option.to_list (P.evict state)
  | Diff_engine.Mem key -> if P.mem state key then [ key ] else []
  | Diff_engine.Remove key ->
      P.remove state key;
      []
  | Diff_engine.Clear ->
      P.clear state;
      []

let rent_lockstep (type c) (module P : Policy.S with type t = c) =
  QCheck.Test.make
    ~name:(P.policy_name ^ " matches the inflation model's exact order")
    ~count:300
    (QCheck.make
       ~print:(fun (capacity, ops) ->
         Printf.sprintf "capacity=%d; %s" capacity (Diff_engine.ops_to_string ops))
       ~shrink:QCheck.Shrink.(pair int (list ~shrink:nil))
       QCheck.Gen.(pair (int_range 1 10) (list_size (int_bound 200) rent_op_gen)))
    (fun (capacity, ops) ->
      let real = P.create ~capacity and model = Model_cache.Gds.create ~capacity in
      List.for_all
        (fun op ->
          apply_op (module P) real op = apply_op (module Model_cache.Gds) model op
          && P.size real = Model_cache.Gds.size model
          && P.used real = Model_cache.Gds.used model
          && P.contents real = Model_cache.Gds.contents model)
        ops)

let rent_lockstep_properties =
  [
    rent_lockstep (module Agg_baselines.Greedy_dual);
    rent_lockstep (module Agg_baselines.Landlord);
    rent_lockstep (module Agg_baselines.Bundle);
  ]

(* --- qcheck: successor models ----------------------------------------- *)

let successor_property policy pname =
  QCheck.Test.make
    ~name:(Printf.sprintf "successor %s list agrees with its model" pname)
    ~count:200
    QCheck.(pair (int_range 1 8) (list (QCheck.map (fun i -> abs i mod 12) int)))
    (fun (capacity, stream) ->
      let real = Successor_list.create ~capacity ~policy in
      let model = Model_successor.create ~capacity ~policy in
      List.for_all
        (fun s ->
          let mem_ok = Successor_list.mem real s = Model_successor.mem model s in
          Successor_list.observe real s;
          Model_successor.observe model s;
          mem_ok
          && Successor_list.ranked real = Model_successor.ranked model
          && Successor_list.top real = Model_successor.top model
          && Successor_list.size real = Model_successor.size model)
        stream)

let oracle_property =
  QCheck.Test.make ~name:"successor oracle agrees with its model" ~count:200
    QCheck.(list (pair (int_range 0 8) (int_range 0 8)))
    (fun pairs ->
      let real = Agg_successor.Oracle.create () in
      let model = Model_successor.Oracle.create () in
      List.for_all
        (fun (file, successor) ->
          let before =
            Agg_successor.Oracle.mem real ~file ~successor
            = Model_successor.Oracle.mem model ~file ~successor
          in
          Agg_successor.Oracle.observe real ~file ~successor;
          Model_successor.Oracle.observe model ~file ~successor;
          before
          && Agg_successor.Oracle.mem real ~file ~successor
             && Model_successor.Oracle.mem model ~file ~successor)
        pairs)

(* --- qcheck: the aggregating client vs its model ---------------------- *)

let client_property =
  QCheck.Test.make ~name:"aggregating client agrees with its model" ~count:60
    QCheck.(
      triple (int_range 2 10) (int_range 1 6)
        (list_of_size (QCheck.Gen.int_bound 200) (QCheck.map (fun i -> abs i mod 20) int)))
    (fun (capacity, group_size, accesses) ->
      let config = Agg_core.Config.with_group_size group_size Agg_core.Config.default in
      let real = Agg_core.Client_cache.create ~config ~capacity () in
      let model = Model_system.Client.create ~config ~capacity () in
      List.for_all
        (fun file ->
          Agg_core.Client_cache.access real file = Model_system.Client.access model file)
        accesses
      && Agg_core.Client_cache.metrics real = Model_system.Client.metrics model)

(* --- qcheck: group construction vs its model ---------------------------- *)

let stream_gen =
  QCheck.(list_of_size (QCheck.Gen.int_bound 150) (QCheck.map (fun i -> abs i mod 12) int))

let group_property policy pname =
  QCheck.Test.make
    ~name:(Printf.sprintf "Group_builder.fill agrees with the group model (%s)" pname)
    ~count:60
    QCheck.(pair (int_range 1 8) stream_gen)
    (fun (capacity, stream) ->
      match Diff_engine.group_diff ~policy ~capacity (Array.of_list stream) with
      | _, None -> true
      | _, Some detail -> QCheck.Test.fail_report detail)

(* Path builds one group at the server's depth and hands the client its
   prefix: for g >= 4, fill at g must be a prefix of fill at any g' >= g
   on the same tracker. *)
let group_prefix_property =
  QCheck.Test.make ~name:"fill at g >= 4 is a prefix of fill at any g' >= g" ~count:150
    QCheck.(quad bool (int_range 1 8) (pair (int_range 4 12) (int_range 0 8)) stream_gen)
    (fun (recency, capacity, (g, extra), stream) ->
      let policy = if recency then Successor_list.Recency else Successor_list.Frequency in
      let tracker = Agg_successor.Tracker.create ~capacity ~policy () in
      List.iter (Agg_successor.Tracker.observe tracker) stream;
      let g' = g + extra in
      let short = Array.make g (-1) and long = Array.make g' (-1) in
      List.for_all
        (fun anchor ->
          let n = Agg_core.Group_builder.fill tracker ~group_size:g anchor short in
          let n' = Agg_core.Group_builder.fill tracker ~group_size:g' anchor long in
          n <= n' && Array.sub short 0 n = Array.sub long 0 n)
        (List.init 12 Fun.id))

(* --- qcheck: the .trc scanner vs the line reader -------------------------- *)

let report = function None -> true | Some detail -> QCheck.Test.fail_report detail

(* Bytes over the codec's alphabet, often behind a header: digits,
   spaces, tabs, CR, newlines, ops, comment marks, signs and the
   letters of 0x / w lines. *)
let codec_bytes_property =
  QCheck.Test.make ~name:"codec scanner agrees with the line reader on any bytes" ~count:300
    QCheck.(
      pair bool
        (string_gen_of_size (Gen.int_bound 160)
           (Gen.oneofl (List.of_seq (String.to_seq "0123456789   orw#\n\n\r\t+-x_a")))))
    (fun (headed, body) ->
      report (Diff_engine.codec_diff ((if headed then Codec.header ^ "\n" else "") ^ body)))

let codec_mutated_property =
  QCheck.Test.make ~name:"codec scanner agrees with the line reader on mutated traces" ~count:300
    QCheck.(triple int (int_range 0 40) (int_range 0 5))
    (fun (seed, events, mutations) ->
      report (Diff_engine.codec_diff (Diff_engine.gen_codec_input (Prng.create ~seed ()) ~events ~mutations)))

let codec_chunked_property =
  QCheck.Test.make ~name:"codec scanner agrees across 64 KiB chunk boundaries" ~count:4
    QCheck.(pair int (int_range 0 30))
    (fun (seed, mutations) ->
      let prng = Prng.create ~seed () in
      let events = 5_000 + Prng.int prng 3_000 in
      report (Diff_engine.codec_diff (Diff_engine.gen_codec_input prng ~events ~mutations)))

let codec_writer_property =
  QCheck.Test.make ~name:"codec writer: to_string = write_channel, and it round-trips" ~count:200
    QCheck.(
      pair
        (small_list (triple (int_range 1 60) (int_range 1 9) (int_range 1 9)))
        (list_of_size (Gen.int_bound 100) (triple (int_range 0 2) small_nat (map abs int))))
    (fun (weights, events) ->
      let trace = Agg_trace.Trace.create () in
      List.iteri
        (fun seq (op, client, file) ->
          let op = match op with 0 -> Agg_trace.Event.Open | 1 -> Agg_trace.Event.Read | _ -> Agg_trace.Event.Write in
          Agg_trace.Trace.append trace { Agg_trace.Event.seq; op; client; file })
        events;
      let ws = Agg_trace.Weights.create () in
      List.iter (fun (f, size, cost) -> Agg_trace.Weights.set ws f { Policy.size; cost }) weights;
      report (Diff_engine.codec_write_diff ~weights:ws trace))

(* --- qcheck: Path under an id bijection ------------------------------------ *)

let path_configs = List.concat_map snd Diff_engine.path_relabel_families

(* Streams over 12 files, at least 40 long, so the original ids take
   Trace.dense_ids' identity branch; the relabelling sends about half
   of them to 2^40 and beyond, so the relabelled replay interns. *)
let path_relabel_property =
  QCheck.Test.make ~name:"Path.result is invariant under an injective id relabelling" ~count:200
    QCheck.(
      quad
        (int_range 0 (List.length path_configs - 1))
        (pair (int_range 2 12) (int_range 4 30))
        int
        (list_of_size (Gen.int_range 40 300) (int_range 0 11)))
    (fun (k, (client_capacity, server_capacity), seed, files) ->
      let name, config = List.nth path_configs k in
      let config = { config with Agg_system.Path.client_capacity; server_capacity } in
      let relabel = Diff_engine.gen_relabelling (Prng.create ~seed ()) ~universe:12 in
      match Diff_engine.path_relabel_diff config (Array.of_list files) ~relabel with
      | None -> true
      | Some detail -> QCheck.Test.fail_reportf "%s: %s" name detail)

(* --- qcheck: the cluster miss path's primitives ------------------------- *)

(* QCheck's [int] covers both signs; the edges are forced in as well *)
let any_int = QCheck.(oneof [ int; oneofl [ 0; -1; min_int; max_int; min_int + 1; max_int - 1 ] ])

let single_draw_property =
  QCheck.Test.make ~name:"seeded/derived_bits62 = bits62 of the generator they skip" ~count:500
    QCheck.(pair any_int any_int)
    (fun (seed, index) ->
      match Diff_engine.single_draw_diff ~seed ~index with
      | None -> true
      | Some detail -> QCheck.Test.fail_report detail)

let bernoulli_bits_property =
  QCheck.Test.make ~name:"bernoulli_of_bits62 = bernoulli on a fresh generator" ~count:500 any_int
    (fun seed ->
      match Diff_engine.bernoulli_bits_diff ~seed with
      | None -> true
      | Some detail -> QCheck.Test.fail_report detail)

let fill_group_property =
  QCheck.Test.make ~name:"Ring.fill_group = Ring.group after random joins and leaves" ~count:200
    QCheck.(triple int (int_range 1 10) any_int)
    (fun (seed, replicas, file) ->
      let ring = Diff_engine.gen_ring (Prng.create ~seed ()) in
      let replicas = 1 + (replicas mod (Agg_cluster.Ring.node_count ring + 2)) in
      match Diff_engine.fill_group_diff ring ~replicas file with
      | None -> true
      | Some detail -> QCheck.Test.fail_report detail)

let placement_property =
  QCheck.Test.make ~name:"Cluster placement table = Ring.group around every churn op" ~count:60
    QCheck.int
    (fun seed ->
      let config, trace = Diff_engine.gen_placement_case (Prng.create ~seed ()) in
      match Diff_engine.placement_diff config trace with
      | _, None -> true
      | _, Some detail -> QCheck.Test.fail_report detail)

(* --- end-to-end calibrated-trace differential (small budget) ---------- *)

let test_trace_checks_small () =
  let checks =
    Diff_engine.successor_checks ~seed:7 ~events:1_200
    @ Diff_engine.trace_checks ~seed:7 ~events:1_200
  in
  check_bool "some checks ran" true (List.length checks > 50);
  List.iter
    (fun (c : Diff_engine.check) ->
      check_bool (Printf.sprintf "%s: %s" c.Diff_engine.name c.Diff_engine.detail) true
        c.Diff_engine.pass)
    checks

(* --- weighted differentials ------------------------------------------- *)

let check_all_pass checks =
  check_bool "some checks ran" true (checks <> []);
  List.iter
    (fun (c : Diff_engine.check) ->
      check_bool (Printf.sprintf "%s: %s" c.Diff_engine.name c.Diff_engine.detail) true
        c.Diff_engine.pass)
    checks

let test_weighted_fuzz_kinds () =
  (* every built-in kind lifted to weights agrees with its model under
     mixed-weight op sequences (oversize bypass + multi-victim paths) *)
  check_all_pass
    (List.map (Diff_engine.fuzz_policy_weighted ~seed:23 ~ops:600) Agg_cache.Cache.all_kinds)

let test_weighted_fuzz_baselines () =
  check_all_pass
    (List.map (Diff_engine.fuzz_weighted_policy ~seed:29 ~ops:800) Diff_engine.all_weighted_policies)

let test_lru_equivalence () =
  (* GDS/Landlord/Bundle at unit weights must be LRU access for access *)
  check_all_pass (Diff_engine.lru_equivalence_checks ~seed:31 ~events:1_500)

let qcheck_tests =
  agreement_properties @ exact_lockstep_properties @ rent_lockstep_properties
  @ [
      successor_property Successor_list.Recency "recency";
      successor_property Successor_list.Frequency "frequency";
      oracle_property;
      client_property;
      group_property Successor_list.Recency "recency";
      group_property Successor_list.Frequency "frequency";
      group_prefix_property;
      codec_bytes_property;
      codec_mutated_property;
      codec_chunked_property;
      codec_writer_property;
      path_relabel_property;
      single_draw_property;
      bernoulli_bits_property;
      fill_group_property;
      placement_property;
    ]

let () =
  Alcotest.run "agg_oracle"
    [
      ( "model_cache",
        [
          Alcotest.test_case "lru order" `Quick test_model_lru_order;
          Alcotest.test_case "cold insert" `Quick test_model_cold_insert;
          Alcotest.test_case "random shares the seed" `Quick test_model_random_matches_seeded;
        ] );
      ( "engine",
        [
          Alcotest.test_case "mutant minimal repro" `Quick test_mutant_minimal_repro;
          Alcotest.test_case "mutant caught by fuzz" `Quick test_mutant_caught_by_fuzz;
          Alcotest.test_case "shrunk repro still fails" `Quick test_shrunk_repro_still_fails;
          Alcotest.test_case "shrinker on a plain predicate" `Quick test_shrink_ops_plain_predicate;
          Alcotest.test_case "gen_ops deterministic" `Quick test_gen_ops_deterministic;
          Alcotest.test_case "calibrated traces (small)" `Slow test_trace_checks_small;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "mixed-weight fuzz, built-in kinds" `Quick test_weighted_fuzz_kinds;
          Alcotest.test_case "mixed-weight fuzz, weighted baselines" `Quick
            test_weighted_fuzz_baselines;
          Alcotest.test_case "unit weights are lru" `Quick test_lru_equivalence;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
