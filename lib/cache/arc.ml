open Agg_util

module Core = struct
  (* Arena-backed ARC: T1, T2 and the ghost lists B1, B2 are four
     intrusive lists in one arena, and the key index packs
     [(node lsl 2) lor list_id] into a direct-index table slot. A move
     between lists relinks the node in place, so only the list bits change.
     Lengths are counted beside the lists ([Dlist_arena.length] is O(n)). *)

  let t1 = 0
  let t2 = 1
  let b1 = 2
  let b2 = 3

  type t = {
    capacity : int;
    arena : Dlist_arena.t;
    lists : Dlist_arena.list_ array; (* by list id *)
    lens : int array; (* by list id *)
    index : Int_table.t; (* resident and ghost keys -> (node lsl 2) lor list_id *)
    mutable p : int; (* adaptation target for |T1| *)
  }

  let policy_name = "arc"

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Arc.create: capacity must be positive";
    let arena = Dlist_arena.create ~capacity:((2 * capacity) + 5) () in
    {
      capacity;
      arena;
      lists = Array.init 4 (fun _ -> Dlist_arena.new_list arena);
      lens = Array.make 4 0;
      index = Int_table.create ~capacity:(2 * capacity) ();
      p = 0;
    }

  let capacity t = t.capacity
  let size t = t.lens.(t1) + t.lens.(t2)

  let mem t key =
    let packed = Int_table.get t.index key in
    packed >= 0 && packed land 3 <= t2

  (* Relink [key]'s [node] from list [from] to the front or back of [into]. *)
  let relink t key node ~from ~into ~front =
    if front then Dlist_arena.move_to_front t.arena t.lists.(into) node
    else Dlist_arena.move_to_back t.arena t.lists.(into) node;
    t.lens.(from) <- t.lens.(from) - 1;
    t.lens.(into) <- t.lens.(into) + 1;
    Int_table.set t.index key ((node lsl 2) lor into)

  (* Forget the LRU key of list [l] entirely; [-1] when [l] is empty. *)
  let drop_lru t l =
    let key = Dlist_arena.pop_back t.arena t.lists.(l) in
    if key >= 0 then begin
      Int_table.remove t.index key;
      t.lens.(l) <- t.lens.(l) - 1
    end;
    key

  (* Move the LRU key of resident list [l] to the front of its ghost list. *)
  let demote_lru t l =
    let node = Dlist_arena.last t.arena t.lists.(l) in
    if node < 0 then -1
    else begin
      let key = Dlist_arena.key t.arena node in
      relink t key node ~from:l ~into:(l + 2) ~front:true;
      key
    end

  (* ARC's REPLACE: evict from T1 into ghost B1 when T1 exceeds the target,
     otherwise from T2 into B2; when the chosen list is empty, take the
     other one. Returns the evicted (resident) key. *)
  let replace t ~hit_in_b2 =
    let t1_len = t.lens.(t1) in
    let from_t1 = t1_len >= 1 && (t1_len > t.p || (hit_in_b2 && t1_len = t.p)) in
    let first, second = if from_t1 then (t1, t2) else (t2, t1) in
    let victim = demote_lru t first in
    let victim = if victim >= 0 then victim else demote_lru t second in
    if victim >= 0 then Some victim else None

  let promote t key =
    let packed = Int_table.get t.index key in
    if packed >= 0 && packed land 3 <= t2 then
      relink t key (packed lsr 2) ~from:(packed land 3) ~into:t2 ~front:true

  (* ARC case IV: a completely new key. *)
  let insert_new t ~pos key =
    let l1 = t.lens.(t1) + t.lens.(b1) in
    let total = l1 + t.lens.(t2) + t.lens.(b2) in
    let victim =
      if l1 >= t.capacity then
        if t.lens.(t1) < t.capacity then begin
          (* the ghost half of L1 is over budget: recycle its LRU slot *)
          ignore (drop_lru t b1);
          replace t ~hit_in_b2:false
        end
        else begin
          (* T1 alone fills the cache: discard its LRU outright *)
          let v = drop_lru t t1 in
          if v >= 0 then Some v else None
        end
      else if total >= t.capacity then begin
        if total >= 2 * t.capacity then ignore (drop_lru t b2);
        if size t >= t.capacity then replace t ~hit_in_b2:false else None
      end
      else None
    in
    let node =
      match pos with
      | Policy.Hot -> Dlist_arena.push_front t.arena t.lists.(t1) key
      | Policy.Cold -> Dlist_arena.push_back t.arena t.lists.(t1) key
    in
    t.lens.(t1) <- t.lens.(t1) + 1;
    Int_table.set t.index key ((node lsl 2) lor t1);
    victim

  let insert t ~pos key =
    let packed = Int_table.get t.index key in
    if packed < 0 then insert_new t ~pos key
    else begin
      let node = packed lsr 2 and where = packed land 3 in
      if where <= t2 then begin
        (match pos with
        | Policy.Hot -> relink t key node ~from:where ~into:t2 ~front:true
        | Policy.Cold -> relink t key node ~from:where ~into:t1 ~front:false);
        None
      end
      else
        (* ghost hit *)
        match pos with
        | Policy.Hot ->
            let b1_len = max 1 t.lens.(b1) in
            let b2_len = max 1 t.lens.(b2) in
            let hit_in_b2 = where = b2 in
            if hit_in_b2 then t.p <- max 0 (t.p - max 1 (b1_len / b2_len))
            else t.p <- min t.capacity (t.p + max 1 (b2_len / b1_len));
            let victim = if size t >= t.capacity then replace t ~hit_in_b2 else None in
            relink t key node ~from:where ~into:t2 ~front:true;
            victim
        | Policy.Cold ->
            let victim = if size t >= t.capacity then replace t ~hit_in_b2:false else None in
            relink t key node ~from:where ~into:t1 ~front:false;
            victim
    end

  let evict t = replace t ~hit_in_b2:false

  let remove t key =
    let packed = Int_table.get t.index key in
    if packed >= 0 then begin
      Dlist_arena.remove t.arena (packed lsr 2);
      t.lens.(packed land 3) <- t.lens.(packed land 3) - 1;
      Int_table.remove t.index key
    end

  let contents t =
    Dlist_arena.to_list t.arena t.lists.(t2) @ Dlist_arena.to_list t.arena t.lists.(t1)

  let clear t =
    Array.iter (Dlist_arena.clear_list t.arena) t.lists;
    Array.fill t.lens 0 4 0;
    Int_table.clear t.index;
    t.p <- 0

  let target t = t.p

  let in_t2 t key =
    let packed = Int_table.get t.index key in
    packed >= 0 && packed land 3 = t2
end

include Policy.Weighted_of_unit (Core)

let target t = Core.target (core t)
let in_t2 t key = Core.in_t2 (core t) key
