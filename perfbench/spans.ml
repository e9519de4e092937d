(* The traced run's span log, kept by the benchmark itself around its
   calls into the layers (the program under test records nothing).
   Spans stay in memory and are written out once, when the run ends, as
   Chrome trace_event JSON. Time is read only through
   [Agg_obs.Span.now_ns], the repository's single clock. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** enclosing span's id, [-1] at the top level *)
  run : int;  (** ladder pass the span belongs to *)
  start_ns : int64;
  end_ns : int64;
}

type t = {
  origin_ns : int64;
  mutable rev_spans : span list;
  mutable next_id : int;
  mutable open_ids : int list;
  mutable run : int;
}

let create () =
  { origin_ns = Agg_obs.Span.now_ns (); rev_spans = []; next_id = 0; open_ids = []; run = 0 }

let set_run t run = t.run <- run
let count t = t.next_id

(* [timed t name f] runs [f] inside a span and returns its result with
   the span's duration in nanoseconds. The span is recorded even when
   [f] raises. *)
let timed t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ids with p :: _ -> p | [] -> -1 in
  t.open_ids <- id :: t.open_ids;
  let start_ns = Agg_obs.Span.now_ns () in
  let close () =
    let end_ns = Agg_obs.Span.now_ns () in
    t.open_ids <- List.tl t.open_ids;
    t.rev_spans <- { id; name; parent; run = t.run; start_ns; end_ns } :: t.rev_spans;
    Int64.sub end_ns start_ns
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
      ignore (close ());
      raise e

let span t name f = fst (timed t name f)

(* Accesses are traced in batches: a span per access would cost more
   than most of the operations it measures. *)
let batch = 4096

(* [batched t name a f] applies [f] to every element of [a], one span of
   [name] per [batch] elements. *)
let batched t name a f =
  let n = Array.length a in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + batch) in
    span t name (fun () ->
        for i = !lo to hi - 1 do
          f (Array.unsafe_get a i)
        done);
    lo := hi
  done

let us_of t ns = Int64.to_float (Int64.sub ns t.origin_ns) /. 1e3

let write_chrome t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
      List.rev t.rev_spans
      |> List.iteri (fun i s ->
             Printf.fprintf oc
               "%s{\"name\": %S, \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \
                \"pid\": 1, \"tid\": 1, \"args\": {\"id\": %d, \"parent\": %d, \"run\": %d}}\n"
               (if i = 0 then "" else ",")
               s.name (us_of t s.start_ns)
               (Int64.to_float (Int64.sub s.end_ns s.start_ns) /. 1e3)
               s.id s.parent s.run);
      output_string oc "]}\n")
