type policy = Recency | Frequency

let policy_name = function Recency -> "lru" | Frequency -> "lfu"

(* [Recency] is an LRU list over successor ids. The capacity is a small
   constant (the paper explores k ≤ 10), so the list lives in a fixed int
   array, MRU first, and "move to front" is a few-word shift — no nodes,
   no hashing, no allocation.

   [Frequency] keeps the k *most frequent* successors seen so far, per the
   paper's description ("maintains a list of the most frequent
   successors"): full counts are remembered for every successor ever
   observed, and a newcomer enters the list only when its count overtakes
   the current minimum (most recent wins ties). This idealised frequency
   policy needs unbounded counters — which itself illustrates the paper's
   point that a small recency list is the cheaper *and* better choice. *)

type entry = { mutable count : int; mutable tick : int }

type t = {
  capacity : int;
  policy : policy;
  succs : int array; (* Recency only: most recent first, [len] live *)
  mutable len : int; (* Recency only *)
  counts : (int, entry) Hashtbl.t; (* Frequency only: all successors ever *)
  members : (int, unit) Hashtbl.t; (* Frequency only: the current top-k *)
  mutable clock : int;
  mutable order : int array; (* Frequency only: [members] ranked, rebuilt lazily *)
  mutable order_stale : bool; (* Frequency only: [members] changed since [order] *)
}

let create ~capacity ~policy =
  if capacity <= 0 then invalid_arg "Successor_list.create: capacity must be positive";
  {
    capacity;
    policy;
    succs = (match policy with Recency -> Array.make capacity 0 | Frequency -> [||]);
    len = 0;
    counts = Hashtbl.create 16;
    members = Hashtbl.create (2 * capacity);
    clock = 0;
    order = [||];
    order_stale = false;
  }

let capacity t = t.capacity

let size t = match t.policy with Recency -> t.len | Frequency -> Hashtbl.length t.members

(* Index of [succ] in [slots.(off + i) .. slots.(off + len - 1)], or -1.
   Top level rather than a local closure, so a scan allocates nothing. *)
let rec find_slot slots ~off ~len succ i =
  if i >= len then -1 else if slots.(off + i) = succ then i else find_slot slots ~off ~len succ (i + 1)

let find_recency t succ = find_slot t.succs ~off:0 ~len:t.len succ 0

let mem t succ =
  match t.policy with
  | Recency -> find_recency t succ >= 0
  | Frequency -> Hashtbl.mem t.members succ

(* Exposed for the flat per-file tracker, which stores many such lists
   back to back in one array: move [succ] to the front of the region
   [slots.(off) .. slots.(off + len - 1)], evicting the last entry when a
   full region sees a newcomer. Returns the new live length. *)
let observe_slots slots ~off ~len ~capacity succ =
  let at = find_slot slots ~off ~len succ 0 in
  let shift_end = if at >= 0 then at else min len (capacity - 1) in
  Array.blit slots off slots (off + 1) shift_end;
  slots.(off) <- succ;
  if at >= 0 then len else min (len + 1) capacity

let observe_recency t succ = t.len <- observe_slots t.succs ~off:0 ~len:t.len ~capacity:t.capacity succ

(* The list member with the smallest (count, tick): the one a newcomer
   must beat. Linear in k, and k is at most ~10. *)
let weakest_member t =
  Hashtbl.fold
    (fun key () acc ->
      let entry = Hashtbl.find t.counts key in
      match acc with
      | None -> Some (key, entry)
      | Some (_, best) ->
          if entry.count < best.count || (entry.count = best.count && entry.tick < best.tick)
          then Some (key, entry)
          else acc)
    t.members None

let observe_frequency t succ =
  t.clock <- t.clock + 1;
  t.order_stale <- true;
  let entry =
    match Hashtbl.find_opt t.counts succ with
    | Some e ->
        e.count <- e.count + 1;
        e.tick <- t.clock;
        e
    | None ->
        let e = { count = 1; tick = t.clock } in
        Hashtbl.replace t.counts succ e;
        e
  in
  if not (Hashtbl.mem t.members succ) then
    if Hashtbl.length t.members < t.capacity then Hashtbl.replace t.members succ ()
    else
      match weakest_member t with
      | Some (victim, weakest)
        when entry.count > weakest.count
             || (entry.count = weakest.count && entry.tick > weakest.tick) ->
          Hashtbl.remove t.members victim;
          Hashtbl.replace t.members succ ()
      | Some _ | None -> ()

let observe t succ =
  match t.policy with Recency -> observe_recency t succ | Frequency -> observe_frequency t succ

(* The current top-k by (count, tick), most likely first; ticks are
   unique, so the order is total. Rebuilt only after an observation. *)
let frequency_order t =
  if t.order_stale then begin
    let all =
      Hashtbl.fold (fun key () acc -> (key, Hashtbl.find t.counts key) :: acc) t.members []
    in
    let cmp (_, a) (_, b) =
      match compare b.count a.count with 0 -> compare b.tick a.tick | c -> c
    in
    t.order <- Array.of_list (List.map fst (List.sort cmp all));
    t.order_stale <- false
  end;
  t.order

let nth t i =
  if i < 0 || i >= size t then invalid_arg "Successor_list.nth: index out of bounds";
  match t.policy with Recency -> t.succs.(i) | Frequency -> (frequency_order t).(i)

let ranked t =
  match t.policy with
  | Recency -> List.init t.len (fun i -> t.succs.(i))
  | Frequency -> Array.to_list (frequency_order t)

let top t = if size t > 0 then Some (nth t 0) else None
