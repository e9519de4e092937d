module Tracker = Agg_successor.Tracker

(* The group is built in the caller's buffer: [buf.(0)] is the requested
   file and [buf.(1) .. buf.(n - 1)] the members chosen so far. Groups are
   single digits, so membership is a linear scan of that prefix. Every
   helper is top level and takes its context as arguments — a local
   closure would be allocated on each call. *)

let rec seen buf n s j = j < n && (buf.(j) = s || seen buf n s (j + 1))

(* Index of the highest-ranked successor of [current] not yet in the
   group, or -1. *)
let rec first_unseen tracker buf n current i count =
  if i >= count then -1
  else if seen buf n (Tracker.successor tracker current i) 0 then
    first_unseen tracker buf n current (i + 1) count
  else i

(* Small groups: the requested file plus its most likely immediate
   successors (paper: "simply a matter of retrieving the requested file
   and one or two of its immediate successors"). *)
let rec immediate tracker ~group_size buf file i count n =
  if i >= count || n >= group_size then n
  else
    let s = Tracker.successor tracker file i in
    if s = file then immediate tracker ~group_size buf file (i + 1) count n
    else begin
      buf.(n) <- s;
      immediate tracker ~group_size buf file (i + 1) count (n + 1)
    end

(* Large groups: follow the chain of most-likely immediate successors as
   far as possible. When the chain stalls (no metadata, or only files
   already in the group), fall back to the next-ranked successor of the
   most recently added member that still has one. *)
let rec extend tracker ~group_size buf n current =
  if n >= group_size then n
  else
    let i = first_unseen tracker buf n current 0 (Tracker.successor_count tracker current) in
    if i >= 0 then add tracker ~group_size buf n (Tracker.successor tracker current i)
    else fallback tracker ~group_size buf n (n - 2)

(* Resume from the deepest member [buf.(j)] — newest first, down to the
   requested file at [buf.(0)] — that still offers an unseen successor.
   [extend] starts it below [buf.(n - 1)], the member that just stalled. *)
and fallback tracker ~group_size buf n j =
  if j < 0 then n
  else
    let m = buf.(j) in
    let i = first_unseen tracker buf n m 0 (Tracker.successor_count tracker m) in
    if i >= 0 then add tracker ~group_size buf n (Tracker.successor tracker m i)
    else fallback tracker ~group_size buf n (j - 1)

and add tracker ~group_size buf n next =
  buf.(n) <- next;
  extend tracker ~group_size buf (n + 1) next

let fill ?(obs = Agg_obs.Sink.noop) tracker ~group_size file buf =
  if group_size <= 0 then invalid_arg "Group_builder.fill: group_size must be positive";
  if Array.length buf < group_size then
    invalid_arg "Group_builder.fill: buffer shorter than group_size";
  buf.(0) <- file;
  let n =
    if group_size = 1 then 1
    else if group_size <= 3 then
      immediate tracker ~group_size buf file 0 (Tracker.successor_count tracker file) 1
    else extend tracker ~group_size buf 1 file
  in
  if Agg_obs.Sink.enabled obs then
    Agg_obs.Sink.emit obs (Agg_obs.Event.Group_built { anchor = file; size = n });
  n

let build ?obs tracker ~group_size file =
  if group_size <= 0 then invalid_arg "Group_builder.build: group_size must be positive";
  let buf = Array.make group_size file in
  let n = fill ?obs tracker ~group_size file buf in
  List.init n (Array.get buf)
