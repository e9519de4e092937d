module Prng = Agg_util.Prng
module Policy = Agg_cache.Policy
module Cache = Agg_cache.Cache
module Config = Agg_core.Config
module Metrics = Agg_core.Metrics
module Server_cache = Agg_core.Server_cache
module Successor_list = Agg_successor.Successor_list
module Profile = Agg_workload.Profile
module Generator = Agg_workload.Generator

type op =
  | Insert of Policy.insert_position * Policy.weight * int
  | Promote of int
  | Charge of int * int
  | Evict
  | Mem of int
  | Remove of int
  | Clear

let pos_name = function Policy.Hot -> "hot" | Policy.Cold -> "cold"

let op_to_string = function
  | Insert (pos, w, k) when Policy.is_unit w -> Printf.sprintf "insert %s %d" (pos_name pos) k
  | Insert (pos, w, k) ->
      Printf.sprintf "insert %s %d s%dc%d" (pos_name pos) k w.Policy.size w.Policy.cost
  | Promote k -> Printf.sprintf "promote %d" k
  | Charge (k, cost) -> Printf.sprintf "charge %d c%d" k cost
  | Evict -> "evict"
  | Mem k -> Printf.sprintf "mem %d" k
  | Remove k -> Printf.sprintf "remove %d" k
  | Clear -> "clear"

let ops_to_string ops = String.concat "; " (List.map op_to_string ops)

let gen_ops prng ~universe ~count =
  if universe <= 0 then invalid_arg "Diff_engine.gen_ops: universe must be positive";
  List.init count (fun _ ->
      let key () = Prng.int prng universe in
      match Prng.int prng 16 with
      | 0 | 1 | 2 | 3 | 4 -> Insert (Policy.Hot, Policy.unit_weight, key ())
      | 5 | 6 | 7 -> Insert (Policy.Cold, Policy.unit_weight, key ())
      | 8 | 9 | 10 -> Promote (key ())
      | 11 | 12 -> Evict
      | 13 | 14 -> Mem (key ())
      | _ -> Clear)

let gen_weighted_ops prng ~universe ~max_size ~max_cost ~count =
  if universe <= 0 then invalid_arg "Diff_engine.gen_weighted_ops: universe must be positive";
  if max_size <= 0 || max_cost <= 0 then
    invalid_arg "Diff_engine.gen_weighted_ops: max_size and max_cost must be positive";
  List.init count (fun _ ->
      let key () = Prng.int prng universe in
      let weight () =
        { Policy.size = 1 + Prng.int prng max_size; cost = 1 + Prng.int prng max_cost }
      in
      match Prng.int prng 16 with
      | 0 | 1 | 2 | 3 | 4 -> Insert (Policy.Hot, weight (), key ())
      | 5 | 6 -> Insert (Policy.Cold, weight (), key ())
      | 7 | 8 | 9 -> Promote (key ())
      | 10 | 11 -> Charge (key (), 1 + Prng.int prng max_cost)
      | 12 -> Evict
      | 13 -> Mem (key ())
      | 14 -> Remove (key ())
      | _ -> Clear)

(* Power-of-two sizes up to 16 and integer costs make every credit/size
   ratio and every priority a multiple of 1/16, so both rent forms
   compute exactly in floats and no rounding tie can arise. *)
let young_sizes = [| 1; 2; 4; 8; 16 |]

let young_round prng ~universe ~capacity:_ ~count =
  List.init count (fun _ ->
      let key () = Prng.int prng universe in
      let cost () = 1 + Prng.int prng 9 in
      let weight () =
        { Policy.size = young_sizes.(Prng.int prng (Array.length young_sizes)); cost = cost () }
      in
      match Prng.int prng 16 with
      | 0 | 1 | 2 | 3 | 4 | 5 -> Insert (Policy.Hot, weight (), key ())
      | 6 | 7 | 8 -> Insert (Policy.Cold, weight (), key ())
      | 9 | 10 | 11 -> Promote (key ())
      | 12 | 13 -> Charge (key (), cost ())
      | _ -> Remove (key ()))

type divergence = { step : int; detail : string }

(* --- lockstep drivers ----------------------------------------------------

   A driver is the Policy.S surface reified as closures, so the same
   runner compares any optimized implementation — or a seeded mutant —
   against the model. *)

type driver = {
  d_insert : Policy.insert_position -> Policy.weight -> int -> int list;
  d_promote : int -> unit;
  d_charge : int -> int -> unit;
  d_evict : unit -> int option;
  d_mem : int -> bool;
  d_remove : int -> unit;
  d_size : unit -> int;
  d_used : unit -> int;
  d_contents : unit -> int list;
  d_clear : unit -> unit;
}

let module_of_kind : Cache.kind -> (module Policy.S) = function
  | Cache.Lru -> (module Agg_cache.Lru)
  | Cache.Lfu -> (module Agg_cache.Lfu)
  | Cache.Fifo -> (module Agg_cache.Fifo)
  | Cache.Mru -> (module Agg_cache.Mru)
  | Cache.Clock -> (module Agg_cache.Clock)
  | Cache.Random -> (module Agg_cache.Random_policy)
  | Cache.Mq -> (module Agg_cache.Mq)
  | Cache.Slru -> (module Agg_cache.Slru)
  | Cache.Twoq -> (module Agg_cache.Twoq)
  | Cache.Arc -> (module Agg_cache.Arc)

(* Any Policy.S implementation reified as a driver — optimized policies,
   weighted baselines and the list-based reference modules all qualify. *)
let driver_of (type a) (module P : Policy.S with type t = a) (state : a) =
  {
    d_insert = (fun pos w k -> P.insert state ~pos ~weight:w k);
    d_promote = (fun k -> P.promote state k);
    d_charge = (fun k cost -> P.charge state k ~cost);
    d_evict = (fun () -> P.evict state);
    d_mem = (fun k -> P.mem state k);
    d_remove = (fun k -> P.remove state k);
    d_size = (fun () -> P.size state);
    d_used = (fun () -> P.used state);
    d_contents = (fun () -> P.contents state);
    d_clear = (fun () -> P.clear state);
  }

let policy_driver kind ~capacity =
  let (module P : Policy.S) = module_of_kind kind in
  driver_of (module P) (P.create ~capacity)

let model_driver model =
  {
    d_insert = (fun pos w k -> Model_cache.insert model ~pos ~weight:w k);
    d_promote = (fun k -> Model_cache.promote model k);
    d_charge = (fun k cost -> Model_cache.charge model k ~cost);
    d_evict = (fun () -> Model_cache.evict model);
    d_mem = (fun k -> Model_cache.mem model k);
    d_remove = (fun k -> Model_cache.remove model k);
    d_size = (fun () -> Model_cache.size model);
    d_used = (fun () -> Model_cache.used model);
    d_contents = (fun () -> Model_cache.contents model);
    d_clear = (fun () -> Model_cache.clear model);
  }

type weighted_policy = Landlord | Gds | Bundle

let weighted_policy_name = function Landlord -> "landlord" | Gds -> "gds" | Bundle -> "bundle"
let all_weighted_policies = [ Landlord; Gds; Bundle ]

let weighted_driver wp ~capacity =
  match wp with
  | Landlord ->
      driver_of (module Agg_baselines.Landlord) (Agg_baselines.Landlord.create ~capacity)
  | Gds -> driver_of (module Agg_baselines.Greedy_dual) (Agg_baselines.Greedy_dual.create ~capacity)
  | Bundle -> driver_of (module Agg_baselines.Bundle) (Agg_baselines.Bundle.create ~capacity)

(* Every baseline runs the inflation-form rent core, so each is paired
   with the inflation-form model: sizes up to capacity + 1 make float
   rounding ties possible, and only a model of the same arithmetic form
   breaks them the same way. The drain-form [Model_cache.Landlord] is
   checked separately on exact inputs ([young_check]). *)
let weighted_model_driver wp ~capacity =
  match wp with
  | Landlord | Gds -> driver_of (module Model_cache.Gds) (Model_cache.Gds.create ~capacity)
  | Bundle -> driver_of (module Model_cache.Bundle) (Model_cache.Bundle.create ~capacity)

(* The seeded mutant: LRU whose promote sends a resident key to the *cold*
   end (insert of a resident key repositions without evicting, so this is
   a pure ordering bug — invisible to mem/size/contents, fatal only to
   eviction order, which is exactly what the lockstep victims expose). *)
let mutant_lru_driver ~capacity =
  let base = policy_driver Cache.Lru ~capacity in
  {
    base with
    d_promote = (fun k -> if base.d_mem k then ignore (base.d_insert Policy.Cold Policy.unit_weight k));
  }

let str_opt = function None -> "None" | Some k -> Printf.sprintf "Some %d" k
let str_list l = Printf.sprintf "[%s]" (String.concat " " (List.map string_of_int l))

let run_pair ~capacity subject reference ops =
  let sorted l = List.sort compare l in
  let check_state step op =
    let ss = subject.d_size () and ms = reference.d_size () in
    let su = subject.d_used () and mu = reference.d_used () in
    if ss <> ms then
      Some
        { step; detail = Printf.sprintf "after %s: size %d vs model %d" (op_to_string op) ss ms }
    else if su <> mu then
      Some
        { step; detail = Printf.sprintf "after %s: used %d vs model %d" (op_to_string op) su mu }
    else if su > capacity then
      (* the conservation invariant: total resident size never exceeds
         capacity, no matter what mix of weights was inserted *)
      Some
        {
          step;
          detail = Printf.sprintf "after %s: used %d exceeds capacity %d" (op_to_string op) su capacity;
        }
    else
      let sc = sorted (subject.d_contents ()) and mc = sorted (reference.d_contents ()) in
      if sc <> mc then
        Some
          {
            step;
            detail =
              Printf.sprintf "after %s: contents %s vs model %s" (op_to_string op) (str_list sc)
                (str_list mc);
          }
      else None
  in
  let apply step op =
    let mismatch what a b =
      Some { step; detail = Printf.sprintf "%s: %s: %s vs model %s" (op_to_string op) what a b }
    in
    match op with
    | Insert (pos, w, k) ->
        let vs = subject.d_insert pos w k and vm = reference.d_insert pos w k in
        if vs <> vm then mismatch "victims" (str_list vs) (str_list vm) else check_state step op
    | Promote k ->
        subject.d_promote k;
        reference.d_promote k;
        check_state step op
    | Charge (k, cost) ->
        subject.d_charge k cost;
        reference.d_charge k cost;
        check_state step op
    | Evict ->
        let vs = subject.d_evict () and vm = reference.d_evict () in
        if vs <> vm then mismatch "victim" (str_opt vs) (str_opt vm) else check_state step op
    | Mem k ->
        let rs = subject.d_mem k and rm = reference.d_mem k in
        if rs <> rm then mismatch "answer" (string_of_bool rs) (string_of_bool rm)
        else check_state step op
    | Remove k ->
        subject.d_remove k;
        reference.d_remove k;
        check_state step op
    | Clear ->
        subject.d_clear ();
        reference.d_clear ();
        check_state step op
  in
  let rec loop step = function
    | [] -> None
    | op :: rest -> ( match apply step op with Some d -> Some d | None -> loop (step + 1) rest)
  in
  loop 0 ops

let diff_ops kind ~capacity ops =
  if capacity <= 0 then invalid_arg "Diff_engine.diff_ops: capacity must be positive";
  run_pair ~capacity (policy_driver kind ~capacity)
    (model_driver (Model_cache.create kind ~capacity))
    ops

let diff_weighted_ops wp ~capacity ops =
  if capacity <= 0 then invalid_arg "Diff_engine.diff_weighted_ops: capacity must be positive";
  run_pair ~capacity (weighted_driver wp ~capacity) (weighted_model_driver wp ~capacity) ops

let diff_ops_mutant ~capacity ops =
  if capacity <= 0 then invalid_arg "Diff_engine.diff_ops_mutant: capacity must be positive";
  run_pair ~capacity (mutant_lru_driver ~capacity)
    (model_driver (Model_cache.create Cache.Lru ~capacity))
    ops

(* --- shrinking: greedy window removal (ddmin-lite) ----------------------- *)

let shrink_ops fails ops =
  let remove_window l lo len = List.filteri (fun i _ -> i < lo || i >= lo + len) l in
  let current = ref ops in
  let chunk = ref (max 1 (List.length ops / 2)) in
  while !chunk >= 1 do
    let improved = ref true in
    while !improved do
      improved := false;
      let n = List.length !current in
      let lo = ref 0 in
      while !lo < n && not !improved do
        let cand = remove_window !current !lo !chunk in
        if List.length cand < n && fails cand then begin
          current := cand;
          improved := true
        end
        else lo := !lo + !chunk
      done
    done;
    chunk := !chunk / 2
  done;
  !current

(* --- checks -------------------------------------------------------------- *)

type check = { name : string; cases : int; pass : bool; detail : string }

let all_pass checks = List.for_all (fun c -> c.pass) checks

let ok name cases = { name; cases; pass = true; detail = "" }
let fail name cases detail = { name; cases; pass = false; detail }

let shrunk_report ~capacity fails ops (d : divergence) =
  let minimal = shrink_ops fails ops in
  Printf.sprintf "capacity=%d step=%d %s; shrunk repro (%d ops): %s" capacity d.step d.detail
    (List.length minimal) (ops_to_string minimal)

(* A round generator draws [count] ops for one fresh cache. Unit rounds
   draw classic unit-weight ops; weighted rounds mix sizes up to one past
   the capacity (so the oversize bypass is exercised) with costs in
   [1, 9] and charge ops; Young rounds ([young_round]) draw exact
   weights. *)
let unit_round prng ~universe ~capacity:_ ~count = gen_ops prng ~universe ~count

let weighted_round prng ~universe ~capacity ~count =
  gen_weighted_ops prng ~universe ~max_size:(capacity + 1) ~max_cost:9 ~count

let fuzz_round ~label ~gen ~run prng =
  let capacity = 1 + Prng.int prng 24 in
  let universe = (capacity * 3) + 4 in
  let count = 500 in
  let ops = gen prng ~universe ~capacity ~count in
  let fails candidate = Option.is_some (run ~capacity candidate) in
  match run ~capacity ops with
  | None -> Ok count
  | Some d -> Error (Printf.sprintf "%s: %s" label (shrunk_report ~capacity fails ops d))

let fuzz_driver ~name ~label ~gen ~run ~seed ~ops =
  let prng = Prng.create ~seed () in
  let generated = ref 0 in
  let failure = ref None in
  while !failure = None && !generated < ops do
    match fuzz_round ~label ~gen ~run prng with
    | Ok n -> generated := !generated + n
    | Error detail -> failure := Some detail
  done;
  match !failure with
  | None -> ok name !generated
  | Some detail -> fail name !generated (Printf.sprintf "seed=%d %s" seed detail)

let fuzz_policy ~seed ~ops kind =
  let label = Cache.kind_name kind in
  fuzz_driver ~name:("ops." ^ label) ~label ~gen:unit_round
    ~run:(fun ~capacity candidate -> diff_ops kind ~capacity candidate)
    ~seed ~ops

(* The same ten policies under mixed weights: the Weighted_of_unit layer
   vs the model's restatement of it. *)
let fuzz_policy_weighted ~seed ~ops kind =
  let label = Cache.kind_name kind in
  fuzz_driver ~name:("wops." ^ label) ~label ~gen:weighted_round
    ~run:(fun ~capacity candidate -> diff_ops kind ~capacity candidate)
    ~seed ~ops

let fuzz_weighted_policy ~seed ~ops wp =
  let label = weighted_policy_name wp in
  fuzz_driver ~name:("wops." ^ label) ~label ~gen:weighted_round
    ~run:(fun ~capacity candidate -> diff_weighted_ops wp ~capacity candidate)
    ~seed ~ops

(* Young's equivalence: the inflation-form Landlord in lib/baselines
   against the drain-form reference, on exact weights where the two
   forms must agree victim for victim. *)
let young_check ~seed ~ops =
  let run ~capacity candidate =
    run_pair ~capacity
      (driver_of (module Agg_baselines.Landlord) (Agg_baselines.Landlord.create ~capacity))
      (driver_of (module Model_cache.Landlord) (Model_cache.Landlord.create ~capacity))
      candidate
  in
  fuzz_driver ~name:"young.landlord" ~label:"young" ~gen:young_round ~run ~seed ~ops

let fuzz_all ~seed ~ops =
  List.map (fuzz_policy ~seed ~ops) Cache.all_kinds
  @ List.map (fuzz_policy_weighted ~seed ~ops) Cache.all_kinds
  @ List.map (fuzz_weighted_policy ~seed ~ops) all_weighted_policies
  @ [ young_check ~seed ~ops ]

let mutant_check ~seed ~ops =
  let name = "mutant.lru-cold-promote" in
  let c =
    fuzz_driver ~name ~label:"mutant" ~gen:unit_round
      ~run:(fun ~capacity candidate -> diff_ops_mutant ~capacity candidate)
      ~seed ~ops
  in
  (* The mutant must be *caught*: a clean run means the engine is blind. *)
  if c.pass then
    fail name c.cases "seeded LRU mutant (promote-to-cold-end) survived the fuzz undetected"
  else { c with pass = true; detail = "caught: " ^ c.detail }

(* --- unit-weight LRU equivalence ------------------------------------------

   Landlord, GreedyDual-Size and the bundle policy all reduce to LRU at
   unit size/cost (credits stay in {0,1}, priorities rise with L, ties
   break towards the least recently used). Checked access-for-access —
   hit answers, victims and the exact recency order — over every
   calibrated profile trace. *)
let lru_equivalence ~capacity files wp =
  let subject = weighted_driver wp ~capacity in
  let lru = policy_driver Cache.Lru ~capacity in
  let divergence = ref None in
  Array.iteri
    (fun i file ->
      if !divergence = None then begin
        let hs = subject.d_mem file and hl = lru.d_mem file in
        if hs <> hl then
          divergence :=
            Some (Printf.sprintf "event %d (file %d): resident %b vs lru %b" i file hs hl)
        else if hs then begin
          subject.d_promote file;
          subject.d_charge file 1;
          lru.d_promote file;
          lru.d_charge file 1
        end
        else begin
          let vs = subject.d_insert Policy.Hot Policy.unit_weight file in
          let vl = lru.d_insert Policy.Hot Policy.unit_weight file in
          if vs <> vl then
            divergence :=
              Some
                (Printf.sprintf "event %d (file %d): victims %s vs lru %s" i file (str_list vs)
                   (str_list vl))
        end;
        if
          !divergence = None
          && (i mod 7 = 0 || i = Array.length files - 1)
          && subject.d_contents () <> lru.d_contents ()
        then divergence := Some (Printf.sprintf "event %d: recency order differs from LRU" i)
      end)
    files;
  (Array.length files, !divergence)

let lru_equivalence_checks ~seed ~events =
  List.concat_map
    (fun (profile : Profile.t) ->
      let files = Generator.generate_files ~seed ~events profile in
      List.map
        (fun wp ->
          let name =
            Printf.sprintf "unit-lru.%s.%s" (weighted_policy_name wp) profile.Profile.name
          in
          match lru_equivalence ~capacity:128 files wp with
          | cases, None -> ok name cases
          | cases, Some detail -> fail name cases (Printf.sprintf "seed=%d %s" seed detail))
        all_weighted_policies)
    Profile.all

(* --- successor-scheme differentials -------------------------------------- *)

let int_list_to_string l = String.concat " " (List.map string_of_int l)

(* One Successor_list vs one Model_successor per file, fed the trace's
   immediate-successor pairs; membership, ranked order and top prediction
   compared at every observation. *)
let successor_diff ~policy ~capacity files =
  let real_lists : (int, Successor_list.t) Hashtbl.t = Hashtbl.create 256 in
  let model_lists : (int, Model_successor.t) Hashtbl.t = Hashtbl.create 256 in
  let real_for file =
    match Hashtbl.find_opt real_lists file with
    | Some l -> l
    | None ->
        let l = Successor_list.create ~capacity ~policy in
        Hashtbl.replace real_lists file l;
        l
  in
  let model_for file =
    match Hashtbl.find_opt model_lists file with
    | Some l -> l
    | None ->
        let l = Model_successor.create ~capacity ~policy in
        Hashtbl.replace model_lists file l;
        l
  in
  let divergence = ref None in
  let cases = ref 0 in
  let prev = ref None in
  Array.iteri
    (fun i file ->
      (match (!divergence, !prev) with
      | None, Some p ->
          let real = real_for p and model = model_for p in
          if Successor_list.mem real file <> Model_successor.mem model file then
            divergence :=
              Some
                (Printf.sprintf "event %d: mem %d of list %d: %b vs model %b" i file p
                   (Successor_list.mem real file)
                   (Model_successor.mem model file))
          else begin
            Successor_list.observe real file;
            Model_successor.observe model file;
            incr cases;
            let rr = Successor_list.ranked real and mr = Model_successor.ranked model in
            if rr <> mr then
              divergence :=
                Some
                  (Printf.sprintf "event %d: ranked of list %d: [%s] vs model [%s]" i p
                     (int_list_to_string rr) (int_list_to_string mr))
            else if Successor_list.top real <> Model_successor.top model then
              divergence :=
                Some
                  (Printf.sprintf "event %d: top of list %d: %s vs model %s" i p
                     (str_opt (Successor_list.top real))
                     (str_opt (Model_successor.top model)))
            else if Successor_list.size real <> Model_successor.size model then
              divergence :=
                Some
                  (Printf.sprintf "event %d: size of list %d: %d vs model %d" i p
                     (Successor_list.size real) (Model_successor.size model))
          end
      | _ -> ());
      prev := Some file)
    files;
  (!cases, !divergence)

let oracle_diff files =
  let real = Agg_successor.Oracle.create () in
  let model = Model_successor.Oracle.create () in
  let divergence = ref None in
  let cases = ref 0 in
  let prev = ref None in
  Array.iteri
    (fun i file ->
      (match (!divergence, !prev) with
      | None, Some p ->
          if
            Agg_successor.Oracle.mem real ~file:p ~successor:file
            <> Model_successor.Oracle.mem model ~file:p ~successor:file
          then
            divergence :=
              Some
                (Printf.sprintf "event %d: oracle mem (%d -> %d): %b vs model %b" i p file
                   (Agg_successor.Oracle.mem real ~file:p ~successor:file)
                   (Model_successor.Oracle.mem model ~file:p ~successor:file))
          else begin
            Agg_successor.Oracle.observe real ~file:p ~successor:file;
            Model_successor.Oracle.observe model ~file:p ~successor:file;
            incr cases
          end
      | _ -> ());
      prev := Some file)
    files;
  (!cases, !divergence)

let successor_checks ~seed ~events =
  List.concat_map
    (fun (profile : Profile.t) ->
      let files = Generator.generate_files ~seed ~events profile in
      let scheme_checks =
        List.concat_map
          (fun (policy, pname) ->
            List.map
              (fun capacity ->
                let name =
                  Printf.sprintf "succ.%s.%s.c%d" profile.Profile.name pname capacity
                in
                match successor_diff ~policy ~capacity files with
                | cases, None -> ok name cases
                | cases, Some detail -> fail name cases (Printf.sprintf "seed=%d %s" seed detail))
              [ 1; 4; 8 ])
          [ (Successor_list.Recency, "recency"); (Successor_list.Frequency, "frequency") ]
      in
      let oracle =
        let name = Printf.sprintf "succ.%s.oracle" profile.Profile.name in
        match oracle_diff files with
        | cases, None -> ok name cases
        | cases, Some detail -> fail name cases (Printf.sprintf "seed=%d %s" seed detail)
      in
      scheme_checks @ [ oracle ])
    Profile.all

(* --- group-construction differential ------------------------------------- *)

let max_group = 12

(* One tracker fed [files]; after every observation the groups of the
   file just seen and of an older anchor are built by Group_builder.fill
   at every g in [1, max_group] and compared with Model_group. For
   g >= 4 each group must also be a prefix of the [max_group] one — the
   invariant Path's single shared build rests on. *)
let group_diff ~policy ~capacity files =
  let tracker = Agg_successor.Tracker.create ~capacity ~policy () in
  let buf = Array.make max_group (-1) in
  let fill g anchor =
    let n = Agg_core.Group_builder.fill tracker ~group_size:g anchor buf in
    Array.to_list (Array.sub buf 0 n)
  in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && is_prefix a' b'
    | _ :: _, [] -> false
  in
  let divergence = ref None in
  let cases = ref 0 in
  Array.iteri
    (fun i file ->
      if !divergence = None then begin
        Agg_successor.Tracker.observe tracker file;
        List.iter
          (fun anchor ->
            let deepest = fill max_group anchor in
            for g = 1 to max_group do
              if !divergence = None then begin
                incr cases;
                let got = fill g anchor in
                let want = Model_group.of_tracker tracker ~group_size:g anchor in
                if got <> want then
                  divergence :=
                    Some
                      (Printf.sprintf "event %d: g=%d anchor %d: fill [%s] vs model [%s]" i g anchor
                         (int_list_to_string got) (int_list_to_string want))
                else if g >= 4 && not (is_prefix got deepest) then
                  divergence :=
                    Some
                      (Printf.sprintf "event %d: g=%d anchor %d: [%s] not a prefix of g=%d [%s]" i g
                         anchor (int_list_to_string got) max_group (int_list_to_string deepest))
              end
            done)
          [ file; files.(i / 2) ]
      end)
    files;
  (!cases, !divergence)

(* Streams that mix sequential runs (long successor chains) with random
   jumps (stalls, cycles and fallbacks) over a small universe. *)
let gen_group_stream prng ~count =
  let universe = 4 + Prng.int prng 28 in
  let files = Array.make count 0 in
  for i = 1 to count - 1 do
    files.(i) <-
      (if Prng.bernoulli prng ~p:0.6 then (files.(i - 1) + 1) mod universe else Prng.int prng universe)
  done;
  files

let group_checks ~seed ~ops =
  let events = max 1 (ops / 4) in
  List.concat_map
    (fun (policy, pname) ->
      List.map
        (fun capacity ->
          let name = Printf.sprintf "group.%s.c%d" pname capacity in
          let prng = Prng.derive (Prng.create ~seed ()) capacity in
          let generated = ref 0 and cases = ref 0 and failure = ref None in
          while !failure = None && !generated < events do
            let files = gen_group_stream prng ~count:200 in
            generated := !generated + Array.length files;
            let n, divergence = group_diff ~policy ~capacity files in
            cases := !cases + n;
            failure := divergence
          done;
          match !failure with
          | None -> ok name !cases
          | Some detail -> fail name !cases (Printf.sprintf "seed=%d %s" seed detail))
        [ 1; 2; 4; 8 ])
    [ (Successor_list.Recency, "recency"); (Successor_list.Frequency, "frequency") ]

(* --- calibrated-trace differentials -------------------------------------- *)

(* Replays a profile trace through the stats-keeping Cache and the model:
   hit flags and sizes every step, resident sets periodically and at the
   end, stats at the end. *)
let replay_policy kind ~capacity files =
  let cache = Cache.create kind ~capacity in
  let model = Model_cache.create kind ~capacity in
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  let divergence = ref None in
  let sorted l = List.sort compare l in
  Array.iteri
    (fun i file ->
      if !divergence = None then begin
        let real_hit = Cache.access cache file in
        let model_hit = Model_cache.mem model file in
        if model_hit then begin
          Model_cache.promote model file;
          incr hits
        end
        else begin
          incr misses;
          let victims = Model_cache.insert model ~pos:Policy.Hot ~weight:Policy.unit_weight file in
          evictions := !evictions + List.length victims
        end;
        if real_hit <> model_hit then
          divergence :=
            Some (Printf.sprintf "event %d (file %d): hit %b vs model %b" i file real_hit model_hit)
        else if Cache.size cache <> Model_cache.size model then
          divergence :=
            Some
              (Printf.sprintf "event %d: size %d vs model %d" i (Cache.size cache)
                 (Model_cache.size model))
        else if
          (i mod 61 = 0 || i = Array.length files - 1)
          && sorted (Cache.contents cache) <> sorted (Model_cache.contents model)
        then divergence := Some (Printf.sprintf "event %d: resident sets differ" i)
      end)
    files;
  (match !divergence with
  | None ->
      let s = Cache.stats cache in
      if
        s.Cache.accesses <> Array.length files
        || s.Cache.hits <> !hits || s.Cache.misses <> !misses
        || s.Cache.evictions <> !evictions
      then
        divergence :=
          Some
            (Printf.sprintf
               "final stats: accesses=%d hits=%d misses=%d evictions=%d vs model hits=%d \
                misses=%d evictions=%d"
               s.Cache.accesses s.Cache.hits s.Cache.misses s.Cache.evictions !hits !misses
               !evictions)
  | Some _ -> ());
  (Array.length files, !divergence)

let replay_client ~config ~capacity files =
  let real = Agg_core.Client_cache.create ~config ~capacity () in
  let model = Model_system.Client.create ~config ~capacity () in
  let divergence = ref None in
  Array.iteri
    (fun i file ->
      if !divergence = None then begin
        let rh = Agg_core.Client_cache.access real file in
        let mh = Model_system.Client.access model file in
        if rh <> mh then
          divergence :=
            Some (Printf.sprintf "event %d (file %d): hit %b vs model %b" i file rh mh)
        else if
          i mod 61 = 0
          && List.exists
               (fun f -> not (Agg_core.Client_cache.resident real f))
               (Model_system.Client.contents model)
        then
          divergence :=
            Some (Printf.sprintf "event %d: model resident set not resident in client" i)
      end)
    files;
  (match !divergence with
  | None ->
      let rm = Agg_core.Client_cache.metrics real in
      let mm = Model_system.Client.metrics model in
      if rm <> mm then
        divergence :=
          Some
            (Format.asprintf "final metrics: %a vs model %a" Metrics.pp_client rm
               Metrics.pp_client mm)
  | Some _ -> ());
  (Array.length files, !divergence)

let outcome_name = function
  | Server_cache.Client_hit -> "client-hit"
  | Server_cache.Server_hit -> "server-hit"
  | Server_cache.Server_miss -> "server-miss"

let replay_server ~cooperative ~scheme ~filter_capacity ~server_capacity files =
  let real =
    Server_cache.create ~cooperative ~filter_kind:Cache.Lru ~filter_capacity ~server_capacity
      ~scheme ()
  in
  let model =
    Model_system.Server.create ~cooperative ~filter_kind:Cache.Lru ~filter_capacity
      ~server_capacity ~scheme ()
  in
  let divergence = ref None in
  Array.iteri
    (fun i file ->
      if !divergence = None then begin
        let ro = Server_cache.access real file in
        let mo = Model_system.Server.access model file in
        if ro <> mo then
          divergence :=
            Some
              (Printf.sprintf "event %d (file %d): outcome %s vs model %s" i file
                 (outcome_name ro) (outcome_name mo))
      end)
    files;
  (match !divergence with
  | None ->
      let rm = Server_cache.metrics real in
      let mm = Model_system.Server.metrics model in
      if rm <> mm then
        divergence :=
          Some
            (Format.asprintf "final metrics: %a vs model %a" Metrics.pp_server rm
               Metrics.pp_server mm)
  | Some _ -> ());
  (Array.length files, !divergence)

(* Cross-cutting paper invariants, checked on the real implementations. *)
let invariant_conservation ~config ~capacity files =
  let client = Agg_core.Client_cache.create ~config ~capacity () in
  Array.iter (fun file -> ignore (Agg_core.Client_cache.access client file)) files;
  let m = Agg_core.Client_cache.metrics client in
  let client_ok = m.Metrics.hits + m.Metrics.demand_fetches = m.Metrics.accesses in
  let server =
    Server_cache.create ~filter_kind:Cache.Lru ~filter_capacity:(max 1 (capacity / 2))
      ~server_capacity:(capacity * 2) ~scheme:(Server_cache.Aggregating config) ()
  in
  Array.iter (fun file -> ignore (Server_cache.access server file)) files;
  let s = Server_cache.metrics server in
  (* store fetches = server misses + speculative fetches, so demand misses
     are exactly [store_fetches - prefetch.issued]. *)
  let server_ok =
    s.Metrics.server_hits + (s.Metrics.store_fetches - s.Metrics.prefetch.Metrics.issued)
    = s.Metrics.server_requests
  in
  if not client_ok then
    Some
      (Printf.sprintf "client: hits %d + demand %d <> accesses %d" m.Metrics.hits
         m.Metrics.demand_fetches m.Metrics.accesses)
  else if not server_ok then
    Some
      (Printf.sprintf "server: hits %d + (store %d - issued %d) <> requests %d"
         s.Metrics.server_hits s.Metrics.store_fetches s.Metrics.prefetch.Metrics.issued
         s.Metrics.server_requests)
  else None

let invariant_belady ~capacity files =
  let belady = Agg_cache.Belady.simulate ~capacity files in
  let offender =
    List.find_map
      (fun kind ->
        let cache = Cache.create kind ~capacity in
        Array.iter (fun file -> ignore (Cache.access cache file)) files;
        let s = Cache.stats cache in
        if s.Cache.hits > belady.Agg_cache.Belady.hits then
          Some (kind, s.Cache.hits)
        else None)
      Cache.all_kinds
  in
  match offender with
  | Some (kind, hits) ->
      Some
        (Printf.sprintf "%s scored %d hits, above Belady's optimal %d" (Cache.kind_name kind)
           hits belady.Agg_cache.Belady.hits)
  | None -> None

let invariant_group1_lru ~capacity files =
  let config = Config.with_group_size 1 Config.default in
  let client = Agg_core.Client_cache.create ~config ~capacity () in
  let plain = Cache.create Cache.Lru ~capacity in
  let divergence = ref None in
  Array.iteri
    (fun i file ->
      if !divergence = None then begin
        let ch = Agg_core.Client_cache.access client file in
        let ph = Cache.access plain file in
        if ch <> ph then
          divergence :=
            Some
              (Printf.sprintf "event %d (file %d): aggregating g=1 hit %b, plain LRU hit %b" i
                 file ch ph)
      end)
    files;
  (match !divergence with
  | None ->
      let m = Agg_core.Client_cache.metrics client in
      let s = Cache.stats plain in
      if m.Metrics.hits <> s.Cache.hits || m.Metrics.demand_fetches <> s.Cache.misses then
        divergence :=
          Some
            (Printf.sprintf "metrics: g=1 hits=%d demand=%d, plain LRU hits=%d misses=%d"
               m.Metrics.hits m.Metrics.demand_fetches s.Cache.hits s.Cache.misses)
  | Some _ -> ());
  !divergence

let trace_checks ~seed ~events =
  let capacity = 128 in
  let check name (cases, divergence) =
    match divergence with
    | None -> ok name cases
    | Some detail -> fail name cases (Printf.sprintf "seed=%d %s" seed detail)
  in
  let check0 name cases = function
    | None -> ok name cases
    | Some detail -> fail name cases (Printf.sprintf "seed=%d %s" seed detail)
  in
  List.concat_map
    (fun (profile : Profile.t) ->
      let p = profile.Profile.name in
      let files = Generator.generate_files ~seed ~events profile in
      let replays =
        List.map
          (fun kind ->
            check
              (Printf.sprintf "replay.%s.%s" p (Cache.kind_name kind))
              (replay_policy kind ~capacity files))
          Cache.all_kinds
      in
      let clients =
        [
          check
            (Printf.sprintf "client.%s" p)
            (replay_client ~config:Config.default ~capacity:200 files);
          check
            (Printf.sprintf "client.head.%s" p)
            (replay_client
               ~config:{ Config.default with Config.member_position = Config.Head }
               ~capacity:200 files);
        ]
      in
      let servers =
        [
          check
            (Printf.sprintf "server.%s" p)
            (replay_server ~cooperative:false ~scheme:(Server_cache.Aggregating Config.default)
               ~filter_capacity:100 ~server_capacity:300 files);
          check
            (Printf.sprintf "server.coop.%s" p)
            (replay_server ~cooperative:true ~scheme:(Server_cache.Aggregating Config.default)
               ~filter_capacity:100 ~server_capacity:300 files);
          check
            (Printf.sprintf "server.plain.%s" p)
            (replay_server ~cooperative:false ~scheme:(Server_cache.Plain Cache.Lru)
               ~filter_capacity:100 ~server_capacity:300 files);
        ]
      in
      let invariants =
        [
          check0
            (Printf.sprintf "inv.conservation.%s" p)
            (Array.length files)
            (invariant_conservation ~config:Config.default ~capacity:200 files);
          check0
            (Printf.sprintf "inv.belady.%s" p)
            (Array.length files)
            (invariant_belady ~capacity files);
          check0
            (Printf.sprintf "inv.group1-lru.%s" p)
            (Array.length files)
            (invariant_group1_lru ~capacity files);
        ]
      in
      replays @ clients @ servers @ invariants)
    Profile.all

(* --- codec lockstep ---------------------------------------------------------- *)

module Codec = Agg_trace.Codec
module Event = Agg_trace.Event
module Trace = Agg_trace.Trace
module Weights = Agg_trace.Weights

type codec_outcome =
  | Read of Event.t list * (int * Policy.weight) list
  | Rejected of int * string  (** a [Parse_error]'s line and message *)
  | Raised of string  (** any other exception: a defect in either reader *)

let codec_outcome read =
  match read () with
  | trace, weights -> Read (Trace.to_events trace, Weights.to_alist weights)
  | exception Codec.Parse_error { line; message } -> Rejected (line, message)
  | exception e -> Raised (Printexc.to_string e)

let codec_outcome_to_string = function
  | Read (events, weights) ->
      Printf.sprintf "%d events, %d weights" (List.length events) (List.length weights)
  | Rejected (line, message) -> Printf.sprintf "line %d: %s" line message
  | Raised e -> "raised " ^ e

let with_temp_file contents f =
  let path = Filename.temp_file "codec" ".trc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

let codec_diff input =
  let from_channel read path = codec_outcome (fun () -> In_channel.with_open_bin path read) in
  with_temp_file input (fun path ->
      let model = codec_outcome (fun () -> Model_codec.of_string_weighted input) in
      let model_channel = from_channel Model_codec.read_channel_weighted path in
      let scanned = codec_outcome (fun () -> Codec.of_string_weighted input) in
      let channel = from_channel Codec.read_channel_weighted path in
      let folded =
        from_channel
          (fun ic ->
            let events = Codec.fold_channel ic ~init:[] ~f:(fun acc e -> e :: acc) in
            (Trace.of_events (List.rev events), Weights.create ()))
          path
      in
      let model_events = match model_channel with Read (es, _) -> Read (es, []) | o -> o in
      let differ what got want =
        Some
          (Printf.sprintf "%s: %s vs model %s" what (codec_outcome_to_string got)
             (codec_outcome_to_string want))
      in
      if scanned <> model then differ "of_string" scanned model
      else if channel <> model_channel then differ "read_channel" channel model_channel
      else if folded <> model_events then differ "fold_channel" folded model_events
      else None)

let codec_write_diff ?weights trace =
  let s = Codec.to_string ?weights trace in
  let written =
    with_temp_file "" (fun path ->
        Out_channel.with_open_bin path (fun oc -> Codec.write_channel ?weights oc trace);
        In_channel.with_open_bin path In_channel.input_all)
  in
  let want =
    Read (Trace.to_events trace, match weights with Some w -> Weights.to_alist w | None -> [])
  in
  if s <> written then Some "to_string and write_channel bytes differ"
  else
    match codec_outcome (fun () -> Codec.of_string_weighted s) with
    | got when got = want -> None
    | got ->
        Some
          (Printf.sprintf "round trip: %s vs %s" (codec_outcome_to_string got)
             (codec_outcome_to_string want))

let gen_codec_trace prng ~events =
  let trace = Trace.create () in
  for seq = 0 to events - 1 do
    let field () =
      match Prng.int prng 4 with
      | 0 -> Prng.int prng 10
      | 1 -> Prng.int prng 100_000
      | 2 -> Prng.int prng (1 lsl 40)
      | _ -> Prng.int prng 1_000_000_000_000_000_000
    in
    let op = match Prng.int prng 3 with 0 -> Event.Open | 1 -> Event.Read | _ -> Event.Write in
    Trace.append trace { Event.seq; op; client = field (); file = field () }
  done;
  trace

let gen_codec_weights prng =
  let weights = Weights.create () in
  for _ = 1 to Prng.int prng 4 do
    Weights.set weights (Prng.int prng 1000)
      { Policy.size = 1 + Prng.int prng 64; cost = 1 + Prng.int prng 64 }
  done;
  weights

(* One field-level or line-level corruption of a canonical line: every
   shape the scanner must hand to the slow parser. *)
let mutate_line prng line =
  let len = String.length line in
  let at = if len = 0 then 0 else Prng.int prng (len + 1) in
  let insert s = String.sub line 0 at ^ s ^ String.sub line at (len - at) in
  let fields = String.split_on_char ' ' line in
  let replace_field f =
    match fields with
    | [] -> line
    | _ ->
        let k = Prng.int prng (List.length fields) in
        String.concat " " (List.mapi (fun i x -> if i = k then f x else x) fields)
  in
  match Prng.int prng 14 with
  | 0 ->
      if len = 0 then line
      else String.mapi (fun i c -> if i = at mod len then Char.chr (Prng.int prng 256) else c) line
  | 1 -> insert " "
  | 2 -> insert "\t"
  | 3 -> line ^ "\r"
  | 4 -> "  " ^ line ^ " "
  | 5 -> replace_field (fun x -> "+" ^ x)
  | 6 -> replace_field (fun x -> "-" ^ x)
  | 7 -> replace_field (fun _ -> "0x1f")
  | 8 -> replace_field (fun x -> x ^ "_0")
  | 9 -> replace_field (fun x -> String.make (19 - Int.min 18 (String.length x)) '0' ^ x)
  | 10 -> replace_field (fun _ -> "9999999999999999999")
  | 11 -> Printf.sprintf "w %d %d %d" (Prng.int prng 50) (Prng.int prng 5 - 1) (Prng.int prng 5)
  | 12 -> if Prng.bool prng then "" else "# comment " ^ line
  | _ -> String.sub line 0 at

(* A canonical trace, possibly with weights and a padding comment that
   moves the chunk boundaries, then [mutations] corrupted lines. *)
let gen_codec_input prng ~events ~mutations =
  let weights = if Prng.bool prng then Some (gen_codec_weights prng) else None in
  let text = Codec.to_string ?weights (gen_codec_trace prng ~events) in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  if Prng.bool prng then lines.(0) <- lines.(0) ^ "\n#" ^ String.make (Prng.int prng 4096) 'p';
  for _ = 1 to mutations do
    let i = Prng.int prng (Array.length lines) in
    lines.(i) <- mutate_line prng lines.(i)
  done;
  let text = String.concat "\n" (Array.to_list lines) in
  if Prng.int prng 4 = 0 then String.sub text 0 (Prng.int prng (String.length text + 1)) else text

let codec_checks ~seed ~ops =
  let run name ~inputs gen =
    let prng = Prng.derive (Prng.create ~seed ()) (Hashtbl.hash name) in
    let cases = ref 0 and failure = ref None in
    while !failure = None && !cases < inputs do
      incr cases;
      let input = gen prng in
      match codec_diff input with
      | None -> ()
      | Some detail -> failure := Some (Printf.sprintf "seed=%d input %S: %s" seed input detail)
    done;
    match !failure with None -> ok name !cases | Some detail -> fail name !cases detail
  in
  let writer =
    let prng = Prng.derive (Prng.create ~seed ()) 1 in
    let cases = max 1 (ops / 200) in
    let rec go i =
      if i = cases then ok "codec.writer" cases
      else
        let weights = if Prng.bool prng then Some (gen_codec_weights prng) else None in
        match codec_write_diff ?weights (gen_codec_trace prng ~events:(Prng.int prng 300)) with
        | None -> go (i + 1)
        | Some detail -> fail "codec.writer" (i + 1) (Printf.sprintf "seed=%d case %d: %s" seed i detail)
    in
    go 0
  in
  [
    run "codec.lockstep" ~inputs:(max 1 (ops / 20)) (fun prng ->
        gen_codec_input prng ~events:(Prng.int prng 30) ~mutations:(Prng.int prng 4));
    (* beyond one 64 KiB chunk: lines straddle every chunk boundary *)
    run "codec.lockstep.chunked" ~inputs:4 (fun prng ->
        gen_codec_input prng ~events:(2_000 + Prng.int prng 6_000) ~mutations:(Prng.int prng 40));
    writer;
  ]

(* --- Path id-bijection invariance ------------------------------------------ *)

module Path = Agg_system.Path

type path_run = {
  result : Path.result;
  events : Agg_obs.Event.t list;
  spans : Agg_obs.Trace_ctx.span list;
}

let path_run config files =
  let sink = Agg_obs.Sink.memory () in
  let trace_ctx = Agg_obs.Trace_ctx.create ~sample:0.5 ~seed:3 () in
  let config = { config with Path.scope = Some (Agg_obs.Scope.create ~sink ~trace_ctx ()) } in
  let result = Path.run config (Trace.of_files (Array.to_list files)) in
  { result; events = Agg_obs.Sink.events sink; spans = Agg_obs.Trace_ctx.spans trace_ctx }

let relabel_event relabel (e : Agg_obs.Event.t) =
  match e with
  | Agg_obs.Event.Fetch_timeout r -> Agg_obs.Event.Fetch_timeout { r with file = relabel r.file }
  | Agg_obs.Event.Fetch_degraded r -> Agg_obs.Event.Fetch_degraded { r with file = relabel r.file }
  | e -> e

(* Every span names the raw id its request accessed. *)
let span_ids_raw files spans =
  List.for_all
    (fun (s : Agg_obs.Trace_ctx.span) ->
      let raw = files.(s.Agg_obs.Trace_ctx.request) in
      let suffix = Printf.sprintf " f%d" raw in
      let name = s.Agg_obs.Trace_ctx.span_name in
      s.Agg_obs.Trace_ctx.file = raw
      && (s.Agg_obs.Trace_ctx.span_cat <> "request" && s.Agg_obs.Trace_ctx.span_cat <> "fetch"
          && s.Agg_obs.Trace_ctx.span_cat <> "degraded"
         || String.ends_with ~suffix name))
    spans

let path_relabel_diff config files ~relabel =
  let relabelled = Array.map relabel files in
  let a = path_run config files and b = path_run config relabelled in
  if a.result <> b.result then
    Some
      (Format.asprintf "result %a vs relabelled %a" Path.pp_result a.result Path.pp_result b.result)
  else if List.map (relabel_event relabel) a.events <> b.events then
    Some "relabelled run's events are not the original's under the relabelling"
  else if not (span_ids_raw files a.spans) then Some "a span does not carry its raw id"
  else if not (span_ids_raw relabelled b.spans) then Some "a relabelled span does not carry its raw id"
  else None

(* An injective relabelling of [0, universe): half the ids at 2^40 and
   beyond, so the interner runs. *)
let gen_relabelling prng ~universe =
  let taken = Hashtbl.create universe in
  let fresh () =
    let rec go () =
      let v =
        if Prng.bool prng then (1 lsl 40) + Prng.int prng (1 lsl 40) else Prng.int prng (4 * universe)
      in
      if Hashtbl.mem taken v then go ()
      else begin
        Hashtbl.replace taken v ();
        v
      end
    in
    go ()
  in
  let map = Array.init universe (fun _ -> fresh ()) in
  fun f -> map.(f)

let hostile_plan =
  {
    Agg_faults.Plan.default with
    Agg_faults.Plan.loss_rate = 0.4;
    outage_period = 100;
    outage_rate = 0.3;
    outage_length = 20;
    crash_rate = 0.01;
  }

(* The configurations, in three families: every plain cache kind at both
   tiers, the aggregating client and the aggregating client and server
   at g in {1, 2, 3, 5, 7}; each healthy and under [hostile_plan]. *)
let path_relabel_families =
  let base = Path.default_config in
  let with_faults configs =
    List.concat_map
      (fun (name, (config : Path.config)) ->
        [ (name, config); (name ^ "+faults", { config with Path.faults = hostile_plan }) ])
      configs
  in
  let grouped deployment =
    List.map
      (fun g -> (Printf.sprintf "g%d" g, Path.with_deployment ~group_size:g deployment base))
      [ 1; 2; 3; 5; 7 ]
  in
  [
    ( "plain",
      with_faults
        (List.map
           (fun kind ->
             ( Cache.kind_name kind,
               { base with Path.client = Agg_system.Scheme.Plain kind; server = Agg_system.Scheme.Plain kind } ))
           Cache.all_kinds) );
    ("agg-client", with_faults (grouped `Aggregating_client));
    ("agg-both", with_faults (grouped `Aggregating_both));
  ]

let path_relabel_checks ~seed ~ops =
  let rounds = max 1 (ops / 5_000) in
  List.map
    (fun (family, configs) ->
      let name = "path.relabel." ^ family in
      let prng = Prng.derive (Prng.create ~seed ()) (Hashtbl.hash name) in
      let cases = ref 0 and failure = ref None in
      for _ = 1 to rounds do
        List.iter
          (fun (cname, (config : Path.config)) ->
            if !failure = None then begin
              let files = gen_group_stream prng ~count:(100 + Prng.int prng 400) in
              let relabel = gen_relabelling prng ~universe:32 in
              let config =
                {
                  config with
                  Path.client_capacity = 2 + Prng.int prng 12;
                  server_capacity = 4 + Prng.int prng 24;
                }
              in
              cases := !cases + Array.length files;
              match path_relabel_diff config files ~relabel with
              | None -> ()
              | Some detail ->
                  failure :=
                    Some
                      (Printf.sprintf "seed=%d %s c%d s%d files [%s]: %s" seed cname
                         config.Path.client_capacity config.Path.server_capacity
                         (int_list_to_string (Array.to_list files))
                         detail)
            end)
          configs
      done;
      match !failure with None -> ok name !cases | Some detail -> fail name !cases detail)
    path_relabel_families

(* --- single draws, ring groups and the cluster placement table ------------- *)

(* Seeds at the edges of the int range, then arbitrary 63-bit ints of
   either sign. *)
let edge_ints = [ 0; 1; -1; 2; min_int; max_int; min_int + 1; max_int - 1; 1 lsl 62; -(1 lsl 62) ]

let gen_any_int prng = Int64.to_int (Prng.bits64 prng)

let single_draw_diff ~seed ~index =
  let fresh = Prng.bits62 (Prng.create ~seed ()) and single = Prng.seeded_bits62 seed in
  if fresh <> single then
    Some (Printf.sprintf "seeded_bits62 %d = %d, bits62 (create ~seed) = %d" seed single fresh)
  else
    (* a parent one step past its seeding, so all four state words mix *)
    let parent = Prng.create ~seed () in
    ignore (Prng.bits64 parent);
    let derived = Prng.bits62 (Prng.derive parent index)
    and single = Prng.derived_bits62 parent index in
    if derived <> single then
      Some
        (Printf.sprintf "derived_bits62 (seed %d) %d = %d, bits62 (derive) = %d" seed index single
           derived)
    else None

(* The probabilities the fault plans use, plus the two floats on either
   side of the draw's own unit value, where [<] decides. *)
let bernoulli_bits_diff ~seed =
  let bits = Prng.seeded_bits62 seed in
  let unit = Prng.float (Prng.create ~seed ()) 1.0 in
  let ps = [ 0.0; 5e-324; 1e-9; 0.05; 0.1; 0.5; 1.0; unit; Float.succ unit; Float.pred unit ] in
  List.find_map
    (fun p ->
      let single = Prng.bernoulli_of_bits62 bits ~p
      and fresh = Prng.bernoulli (Prng.create ~seed ()) ~p in
      if single = fresh then None
      else Some (Printf.sprintf "seed %d p=%h: bernoulli_of_bits62 %b, bernoulli %b" seed p single fresh))
    ps

module Ring = Agg_cluster.Ring
module Cluster = Agg_cluster.Cluster

(* A ring after random joins and leaves. *)
let gen_ring prng =
  let ring =
    ref
      (Ring.create ~points_per_node:(1 + Prng.int prng 16) ~seed:(Prng.int prng 1_000_000)
         ~nodes:(1 + Prng.int prng 6) ())
  in
  for _ = 1 to Prng.int prng 6 do
    let members = Array.of_list (Ring.members !ring) in
    if Prng.bool prng && Array.length members > 1 then ring := Ring.remove !ring (Prng.choose prng members)
    else
      let node = Prng.int prng 12 in
      if not (Ring.contains !ring node) then ring := Ring.add !ring node
  done;
  !ring

let fill_group_diff ring ~replicas file =
  let want = min replicas (Ring.node_count ring) in
  (* a longer, dirty buffer: only its first [want] cells may be written *)
  let buf = Array.make (want + 2) (-7) in
  let n = Ring.fill_group ring ~replicas file buf in
  let filled = Array.to_list (Array.sub buf 0 n) and listed = Ring.group ring ~replicas file in
  if n <> want || filled <> listed || buf.(want) <> -7 || buf.(want + 1) <> -7 then
    Some
      (Format.asprintf "%a replicas=%d file %d: fill_group [%s] (n=%d), group [%s]" Ring.pp ring
         replicas file (int_list_to_string filled) n (int_list_to_string listed))
  else None

let placement_diff config trace =
  let compared = ref 0 and failure = ref None in
  let check ring file group =
    incr compared;
    let k = min config.Cluster.replicas (Ring.node_count ring) in
    let fresh = Ring.group ring ~replicas:k file in
    if !failure = None && group <> fresh then
      failure :=
        Some
          (Format.asprintf "%a file %d: table [%s], Ring.group [%s]" Ring.pp ring file
             (int_list_to_string group) (int_list_to_string fresh))
  in
  ignore (Cluster.audit_placement config trace check);
  (!compared, !failure)

(* A small cluster config over a valid churn schedule: leaves of live
   members (never the last), joins of absent ids. *)
let gen_placement_case prng =
  let events = 50 + Prng.int prng 400 in
  let nodes = 1 + Prng.int prng 5 in
  let live = ref (List.init nodes Fun.id) in
  let churn =
    List.init (Prng.int prng 5) (fun _ -> Prng.int prng events)
    |> List.sort compare
    |> List.map (fun time ->
           let absent = List.filter (fun n -> not (List.mem n !live)) (List.init 8 Fun.id) in
           if (Prng.bool prng || absent = []) && List.length !live > 1 then begin
             let node = List.nth !live (Prng.int prng (List.length !live)) in
             live := List.filter (( <> ) node) !live;
             (time, Cluster.Leave node)
           end
           else begin
             let node = List.nth absent (Prng.int prng (List.length absent)) in
             live := node :: !live;
             (time, Cluster.Join node)
           end)
  in
  let config =
    {
      Cluster.default_config with
      Cluster.nodes;
      replicas = 1 + Prng.int prng 4;
      ring_seed = Prng.int prng 1_000;
      metadata = Prng.choose prng (Array.of_list Cluster.placements);
      clients = 1 + Prng.int prng 4;
      client_capacity = 2 + Prng.int prng 12;
      node_capacity = 4 + Prng.int prng 24;
      faults = (if Prng.bool prng then hostile_plan else Agg_faults.Plan.none);
      churn;
    }
  in
  (* sparse ids half the time, so the replay interns *)
  let offset = if Prng.bool prng then 1 lsl 40 else 0 in
  let files = gen_group_stream prng ~count:events in
  let trace = Trace.create () in
  Array.iter
    (fun f ->
      let op = if Prng.bernoulli prng ~p:0.1 then Agg_trace.Event.Write else Agg_trace.Event.Open in
      Trace.add_access trace ~client:(Prng.int prng 4) ~op (offset + (f * 7_919)))
    files;
  (config, trace)

let churn_to_string churn =
  String.concat " "
    (List.map
       (fun (t, op) ->
         match op with
         | Cluster.Join n -> Printf.sprintf "%d:+%d" t n
         | Cluster.Leave n -> Printf.sprintf "%d:-%d" t n)
       churn)

let placement_checks ~seed ~ops =
  let stream name = Prng.derive (Prng.create ~seed ()) (Hashtbl.hash name) in
  let single_draw =
    let prng = stream "prng.single_draw" in
    let seeds = edge_ints @ List.init (max 1 (ops / 10)) (fun _ -> gen_any_int prng) in
    let failure =
      List.find_map
        (fun s ->
          List.find_map
            (fun index -> single_draw_diff ~seed:s ~index)
            (edge_ints @ [ gen_any_int prng; Prng.int prng 64 ]))
        seeds
    in
    let cases = List.length seeds * (List.length edge_ints + 2) in
    match failure with None -> ok "prng.single_draw" cases | Some d -> fail "prng.single_draw" cases d
  in
  let bernoulli =
    let prng = stream "prng.bernoulli_bits" in
    let seeds = edge_ints @ List.init (max 1 (ops / 10)) (fun _ -> gen_any_int prng) in
    match List.find_map (fun s -> bernoulli_bits_diff ~seed:s) seeds with
    | None -> ok "prng.bernoulli_bits" (List.length seeds)
    | Some d -> fail "prng.bernoulli_bits" (List.length seeds) d
  in
  let fill_group =
    let prng = stream "ring.fill_group" in
    let cases = ref 0 and failure = ref None in
    for _ = 1 to max 1 (ops / 100) do
      if !failure = None then begin
        let ring = gen_ring prng in
        for _ = 1 to 20 do
          let replicas = 1 + Prng.int prng (Ring.node_count ring + 2) in
          let file = if Prng.bool prng then Prng.int prng 1_000 else gen_any_int prng in
          incr cases;
          if !failure = None then failure := fill_group_diff ring ~replicas file
        done
      end
    done;
    match !failure with
    | None -> ok "ring.fill_group" !cases
    | Some d -> fail "ring.fill_group" !cases (Printf.sprintf "seed=%d %s" seed d)
  in
  let placement =
    let prng = stream "cluster.placement" in
    let cases = ref 0 and failure = ref None in
    for _ = 1 to max 1 (ops / 200) do
      if !failure = None then begin
        let config, trace = gen_placement_case prng in
        let compared, diff = placement_diff config trace in
        cases := !cases + compared;
        match diff with
        | None -> ()
        | Some d ->
            failure :=
              Some
                (Printf.sprintf "seed=%d nodes=%d k=%d churn [%s]: %s" seed config.Cluster.nodes
                   config.Cluster.replicas (churn_to_string config.Cluster.churn) d)
      end
    done;
    match !failure with
    | None -> ok "cluster.placement" !cases
    | Some d -> fail "cluster.placement" !cases d
  in
  [ single_draw; bernoulli; fill_group; placement ]
