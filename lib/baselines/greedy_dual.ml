open Agg_util
module Policy = Agg_cache.Policy

(* The one rent core, shared by [Landlord] and [Bundle]. Residents live on
   an arena-backed recency list (hot end first) for tie-breaks, with
   per-node side arrays holding the GreedyDual-Size priority
   [H = L + cost/size] and the size. Instead of draining credits,
   eviction raises the global inflation floor [L] to the victim's
   priority, which ages every other resident for free. The arena holds
   one sentinel plus at most [capacity] residents (every size is at least
   1), so it never grows and node indices stay below [capacity + 1]. *)
type t = {
  cap : int;
  arena : Dlist_arena.t;
  order : Dlist_arena.list_; (* recency, hot end first *)
  index : Int_table.t; (* key -> node *)
  h : float array; (* node -> priority *)
  sizes : int array; (* node -> size *)
  mutable inflation : float; (* L, non-decreasing *)
  mutable count : int;
  mutable used : int;
}

let policy_name = "gds"

let create ~capacity =
  if capacity <= 0 then invalid_arg "Greedy_dual.create: capacity must be positive";
  let arena = Dlist_arena.create ~capacity:(capacity + 1) () in
  let order = Dlist_arena.new_list arena in
  {
    cap = capacity;
    arena;
    order;
    index = Int_table.create ~capacity ();
    h = Array.make (capacity + 1) 0.0;
    sizes = Array.make (capacity + 1) 1;
    inflation = 0.0;
    count = 0;
    used = 0;
  }

let capacity t = t.cap
let size t = t.count
let used t = t.used
let mem t key = Int_table.get t.index key >= 0
let contents t = Dlist_arena.to_list t.arena t.order
let priority t ~size ~cost = t.inflation +. (float_of_int cost /. float_of_int size)

let promote t key =
  let node = Int_table.get t.index key in
  if node >= 0 then Dlist_arena.move_to_front t.arena t.order node

let charge t key ~cost =
  if cost <= 0 then invalid_arg "Greedy_dual.charge: cost must be positive";
  let node = Int_table.get t.index key in
  if node >= 0 then t.h.(node) <- priority t ~size:t.sizes.(node) ~cost

let evict t =
  if t.count = 0 then None
  else begin
    (* Victim: minimal H, ties towards the cold end ([<=] while scanning
       hot-to-cold keeps the last minimum). *)
    let victim = ref (-1) in
    let best = ref infinity in
    Dlist_arena.iter t.arena t.order (fun k ->
        let n = Int_table.get t.index k in
        if t.h.(n) <= !best then begin
          victim := k;
          best := t.h.(n)
        end);
    let vn = Int_table.get t.index !victim in
    t.inflation <- t.h.(vn);
    t.used <- t.used - t.sizes.(vn);
    t.count <- t.count - 1;
    Dlist_arena.remove t.arena vn;
    Int_table.remove t.index !victim;
    Some !victim
  end

let insert t ~pos ~weight:(w : Policy.weight) key =
  Policy.check_weight ~who:policy_name w;
  let node = Int_table.get t.index key in
  if node >= 0 then begin
    (* reposition only; priority and recorded weight are untouched *)
    (match pos with
    | Policy.Hot -> Dlist_arena.move_to_front t.arena t.order node
    | Policy.Cold -> Dlist_arena.move_to_back t.arena t.order node);
    []
  end
  else if w.Policy.size > t.cap then []
  else begin
    let victims = ref [] in
    while t.used + w.Policy.size > t.cap do
      match evict t with
      | Some v -> victims := v :: !victims
      | None -> assert false (* used > 0 implies a resident victim *)
    done;
    let node =
      match pos with
      | Policy.Hot -> Dlist_arena.push_front t.arena t.order key
      | Policy.Cold -> Dlist_arena.push_back t.arena t.order key
    in
    t.h.(node) <- priority t ~size:w.Policy.size ~cost:w.Policy.cost;
    t.sizes.(node) <- w.Policy.size;
    Int_table.set t.index key node;
    t.count <- t.count + 1;
    t.used <- t.used + w.Policy.size;
    List.rev !victims
  end

let remove t key =
  let node = Int_table.get t.index key in
  if node >= 0 then begin
    t.used <- t.used - t.sizes.(node);
    t.count <- t.count - 1;
    Dlist_arena.remove t.arena node;
    Int_table.remove t.index key
  end

let clear t =
  Dlist_arena.clear_list t.arena t.order;
  Int_table.clear t.index;
  t.count <- 0;
  t.used <- 0;
  t.inflation <- 0.0
