(* The repository benchmark's measuring program; perfbench/run.py builds
   and runs it. One invocation runs one workload either untraced
   (end-to-end metrics, [--trace 0]) or traced (the per-layer ladder,
   [--trace 1]) and prints, as its last line, one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   Usage:
     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   --out-dir DIR [--rev REV] [--build-profile P]
                   [--events N] [--corrupt-check] *)

module W = Workloads

let workload = ref ""
let seed = ref (-1)
let seconds = ref 10.0
let trace = ref (-1)
let out_dir = ref ""
let rev = ref "unknown"
let build_profile = ref "unknown"
let events = ref 0
let corrupt_check = ref false

let usage () =
  Printf.eprintf "usage: perfbench.exe --workload {%s} --seed N --seconds S --trace 0|1 --out-dir DIR\n"
    (String.concat "|" (List.map (fun (s : W.spec) -> s.name) W.specs));
  exit 2

let parse_args () =
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (non-negative)");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced ladder run");
      ("--out-dir", Arg.Set_string out_dir, "DIR where trace files and results are written");
      ("--rev", Arg.Set_string rev, "REV source revision, recorded as provenance");
      ("--build-profile", Arg.Set_string build_profile, "P dune build profile, recorded as provenance");
      ("--events", Arg.Set_int events, "N override the workload's event count (self-test)");
      ("--corrupt-check", Arg.Set corrupt_check, " corrupt the reference counters (self-test)");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench.exe"
   with Arg.Bad m | Arg.Help m ->
     prerr_string m;
     usage ());
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) || !out_dir = "" || !events < 0
  then usage ();
  match W.find !workload with
  | None -> usage ()
  | Some s -> if !events > 0 then { s with W.events = !events } else s

(* --- JSON ---------------------------------------------------------------- *)

let json_num v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let json_metric (name, value, unit) = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num value) unit
let json_obj fields = "{" ^ String.concat ", " fields ^ "}"

(* --- provenance ------------------------------------------------------------ *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

let provenance (spec : W.spec) =
  let g = Gc.get () in
  json_obj
    [
      Printf.sprintf "\"workload\": %S" spec.name;
      Printf.sprintf "\"seed\": %d" !seed;
      Printf.sprintf "\"events\": %d" spec.events;
      Printf.sprintf "\"trace\": %d" !trace;
      Printf.sprintf "\"seconds\": %s" (json_num !seconds);
      Printf.sprintf "\"rev\": %S" !rev;
      Printf.sprintf "\"nproc\": %d" (Domain.recommended_domain_count ());
      Printf.sprintf "\"ocaml_version\": %S" Sys.ocaml_version;
      Printf.sprintf "\"build_profile\": %S" !build_profile;
      Printf.sprintf "\"ocamlrunparam\": %S" (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"");
      Printf.sprintf
        "\"gc\": {\"minor_heap_size\": %d, \"space_overhead\": %d, \"max_overhead\": %d, \
         \"stack_limit\": %d, \"allocation_policy\": %d, \"window_size\": %d, \"custom_major_ratio\": %d, \
         \"custom_minor_ratio\": %d, \"custom_minor_max_size\": %d}"
        g.Gc.minor_heap_size g.Gc.space_overhead g.Gc.max_overhead g.Gc.stack_limit g.Gc.allocation_policy
        g.Gc.window_size g.Gc.custom_major_ratio g.Gc.custom_minor_ratio g.Gc.custom_minor_max_size;
    ]

let median = Ladder.median

(* --- runs ---------------------------------------------------------------- *)

let reference input =
  let r = W.reference input in
  if !corrupt_check then W.corrupt r else r

let report_failures fails = List.iter (fun f -> Printf.printf "check failed: %s\n" f) fails

type result = { attempted : int; failed : int; metrics : (string * float * string) list; extra : string list }

(* The [p]-quantile of a non-empty list, by the nearest rank towards the
   median. *)
let quantile p xs =
  let a = Array.of_list (List.sort compare xs) in
  let r = p *. float_of_int (Array.length a - 1) in
  a.(int_of_float (if p < 0.5 then Float.floor r else Float.ceil r))

let min_setups = 7

(* Untraced end-to-end run. Timed replays run until [seconds] have
   elapsed (at least three), each checked outside its timed region.
   Set-up is repeated between replays, at least [min_setups] times and
   for about a quarter of the replay time, so its samples span the same
   stretch of the run and work moved into set-up shows; the first
   set-up's input is the one replayed. *)
let end_to_end spec =
  let setups = ref [] and setup_walls = ref [] and setup_spent = ref 0.0 in
  let set_up () =
    Gc.compact ();
    let input, wall, scaled = Calib.timed (fun () -> W.setup spec ~seed:!seed ~dir:!out_dir) in
    setups := scaled :: !setups;
    setup_walls := wall :: !setup_walls;
    setup_spent := !setup_spent +. wall;
    input
  in
  let input = set_up () in
  let reference = reference input in
  let rates = ref [] and wall_rates = ref [] and attempted = ref 0 and failed = ref 0 in
  let replay_spent = ref 0.0 in
  let start = Agg_obs.Span.now_ns () and last = ref 0.0 in
  (* no replay is started that would end after [seconds] *)
  while !attempted < 3 || Agg_obs.Span.seconds_since start +. !last <= !seconds do
    incr attempted;
    Gc.full_major ();
    let t0 = Agg_obs.Span.now_ns () in
    (match Calib.timed (fun () -> W.replay input) with
    | o, wall, scaled ->
        replay_spent := !replay_spent +. wall;
        let fails = W.check input reference o in
        if fails = [] then begin
          rates := (float_of_int o.W.host_accesses /. scaled) :: !rates;
          wall_rates := (float_of_int o.W.host_accesses /. wall) :: !wall_rates
        end
        else begin
          incr failed;
          report_failures fails
        end
    | exception e ->
        incr failed;
        report_failures [ "replay raised " ^ Printexc.to_string e ]);
    if !setup_spent < !replay_spent /. 4.0 then ignore (set_up ());
    last := Agg_obs.Span.seconds_since t0
  done;
  while List.length !setups < min_setups do
    ignore (set_up ())
  done;
  let range xs =
    if xs = [] then "none"
    else Printf.sprintf "min %.0f q10 %.0f median %.0f max %.0f" (quantile 0.0 xs) (quantile 0.1 xs) (median xs)
        (quantile 1.0 xs)
  in
  Printf.printf "replays %d checked, %d timed; accesses/s at reference speed %s; on the wall clock %s\n"
    !attempted (List.length !rates) (range !rates) (range !wall_rates);
  Printf.printf "set-up %d times: median %.6f s at reference speed, %.6f s on the wall clock\n"
    (List.length !setups) (median !setups) (median !setup_walls);
  let s = W.sim_of reference.W.first in
  let per_access x = float_of_int x /. float_of_int s.W.accesses in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let metrics =
    [
      (* Throughput at the 90th-percentile replay time. Other tenants of
         the machine slow replays down in stretches the CPU-speed scaling
         does not catch; the slow tail recurs in almost every run, the
         fast one does not. *)
      ("accesses_per_s", (if !rates = [] then 0.0 else quantile 0.1 !rates), "accesses/s");
      ("setup_s", median !setups, "s");
      ("hit_rate", ratio s.W.hits s.W.accesses, "ratio");
      ("mean_latency_ms", s.W.mean_latency_ms, "ms");
      ("store_reads_per_access", per_access s.W.store_reads, "files/access");
      ("retrieval_cost", per_access s.W.retrieval_cost, "cost/access");
    ]
  in
  (* Printed, not in the JSON: each is 0, a constant or too spread across
     seeds on some workload to be bounded (see perfbench/layers.json). *)
  let extra =
    [
      ("peak_rss_mb", peak_rss_mb (), "MB");
      ("byte_hit_rate", ratio s.W.bytes_hit s.W.bytes_accessed, "ratio");
      ("p95_latency_ms", s.W.p95_latency_ms, "ms");
      ("degraded_rate", per_access s.W.degraded, "ratio");
      ("failed_frac", ratio !failed !attempted, "ratio");
    ]
  in
  List.iter (fun (n, v, u) -> Printf.printf "metric %s %s %s\n" n (json_num v) u) (metrics @ extra);
  if Sys.file_exists input.W.trc then Sys.remove input.W.trc;
  { attempted = !attempted; failed = !failed; metrics; extra = List.map json_metric extra }

let per_layer_unit name =
  let ends suffix = String.ends_with ~suffix name in
  if name = "core.groups_built" || name = "core.prefetch_issued" || name = "gc.major_collections" then "count"
  else if ends "victims_per_eviction" then "victims"
  else if ends "words_per_access" then "words"
  else if ends "_ns" || ends "_ns_per_event" || ends "_ns_per_access" || ends ".ns_per_access" then "ns"
  else "ratio"

(* Traced run: the layer ladder. *)
let traced spec =
  let input = W.setup spec ~seed:!seed ~dir:!out_dir in
  let reference = reference input in
  let metrics, counts, tr, passes =
    Ladder.run input ~seed:!seed ~dir:!out_dir ~seconds:!seconds ~check:(W.check input reference)
  in
  let path = Filename.concat !out_dir (Printf.sprintf "trace-%s-%d.json" spec.W.name !seed) in
  Spans.write_chrome tr path;
  if Sys.file_exists input.W.trc then Sys.remove input.W.trc;
  Printf.printf "ladder passes %d, spans %d, written to %s\n" passes (Spans.count tr) path;
  let metrics = List.map (fun (n, v) -> (n, v, per_layer_unit n)) metrics in
  List.iter (fun (n, v, u) -> Printf.printf "layer %s %s %s\n" n (json_num v) u) metrics;
  { attempted = counts.Ladder.attempted; failed = counts.Ladder.failed; metrics; extra = [] }

let () =
  let spec = parse_args () in
  let prov = provenance spec in
  Printf.printf "provenance %s\n%!" prov;
  let r = if !trace = 0 then end_to_end spec else traced spec in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) r.metrics in
  let correct = r.failed = 0 && finite in
  let metrics = "\"metrics\": " ^ json_obj (List.map json_metric r.metrics) in
  let head =
    [ Printf.sprintf "\"correct\": %b" correct; Printf.sprintf "\"attempted\": %d" r.attempted;
      Printf.sprintf "\"failed\": %d" r.failed ]
  in
  let record = Filename.concat !out_dir (Printf.sprintf "result-%s-%d-trace%d.json" spec.W.name !seed !trace) in
  let oc = open_out record in
  output_string oc
    (json_obj (head @ [ "\"provenance\": " ^ prov; metrics; "\"reported\": " ^ json_obj r.extra ]) ^ "\n");
  close_out oc;
  print_endline (json_obj (head @ [ metrics ]))
