open Agg_util

module Core = struct
  (* Arena-backed LFU with O(1) frequency buckets. Every in-cache count
     held by some resident has a bucket: an arena list of its keys, least
     recently touched at the front. The live buckets' links sit on [chain]
     in ascending count order, so the victim — smallest count, then oldest
     touch — is the front key of the first bucket. A touch moves the key to
     the back of the count+1 bucket ([Cold]: the count-0 bucket), opening
     that bucket at its place in the chain when absent. A bucket that
     empties goes back on [spare] with its list, so [capacity + 1] buckets
     (every resident in its own bucket, plus one opened mid-move) are
     allocated once and reused for the cache's whole life. *)

  type bucket = {
    keys : Dlist_arena.list_; (* least recently touched first *)
    link : Dlist_arena.node; (* on [chain] or [spare]; its key is the bucket id *)
    mutable count : int;
  }

  type t = {
    capacity : int;
    arena : Dlist_arena.t;
    chain : Dlist_arena.list_; (* links of the live buckets, ascending count *)
    spare : Dlist_arena.list_; (* links of the empty buckets *)
    buckets : bucket array; (* by bucket id *)
    index : Int_table.t; (* key -> node *)
    owner : Int_table.t; (* key node -> bucket id *)
  }

  let policy_name = "lfu"

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Lfu.create: capacity must be positive";
    let arena = Dlist_arena.create ~capacity:((3 * capacity) + 4) () in
    let chain = Dlist_arena.new_list arena in
    let spare = Dlist_arena.new_list arena in
    let buckets =
      Array.init (capacity + 1) (fun id ->
          let keys = Dlist_arena.new_list arena in
          { keys; link = Dlist_arena.push_back arena spare id; count = 0 })
    in
    {
      capacity;
      arena;
      chain;
      spare;
      buckets;
      index = Int_table.create ~capacity:(2 * capacity) ();
      owner = Int_table.create ~capacity:((3 * capacity) + 4) ();
    }

  let capacity t = t.capacity
  let size t = Int_table.length t.index
  let mem t key = Int_table.mem t.index key
  let bucket_at t link = t.buckets.(Dlist_arena.key t.arena link)

  (* The bucket for [count], which belongs right after the live bucket
     link [after] ({!Dlist_arena.nil}: at the front of the chain). *)
  let bucket_after t after count =
    let next =
      if after = Dlist_arena.nil then Dlist_arena.first t.arena t.chain
      else Dlist_arena.next t.arena t.chain after
    in
    if next <> Dlist_arena.nil && (bucket_at t next).count = count then bucket_at t next
    else begin
      let b = bucket_at t (Dlist_arena.first t.arena t.spare) in
      b.count <- count;
      if after = Dlist_arena.nil then Dlist_arena.move_to_front t.arena t.chain b.link
      else Dlist_arena.move_after t.arena after b.link;
      b
    end

  let close_if_empty t b =
    if Dlist_arena.is_empty t.arena b.keys then Dlist_arena.move_to_back t.arena t.spare b.link

  (* Make [node] the newest key of [target], leaving bucket [from]. *)
  let move t node ~from target =
    Dlist_arena.move_to_back t.arena target.keys node;
    Int_table.set t.owner node (Dlist_arena.key t.arena target.link);
    close_if_empty t from

  let touch t node ~pos =
    let from = t.buckets.(Int_table.get t.owner node) in
    match pos with
    | Policy.Hot -> move t node ~from (bucket_after t from.link (from.count + 1))
    | Policy.Cold -> move t node ~from (bucket_after t Dlist_arena.nil 0)

  let promote t key =
    let node = Int_table.get t.index key in
    if node >= 0 then touch t node ~pos:Policy.Hot

  let remove t key =
    let node = Int_table.get t.index key in
    if node >= 0 then begin
      let from = t.buckets.(Int_table.get t.owner node) in
      Dlist_arena.remove t.arena node;
      Int_table.remove t.owner node;
      Int_table.remove t.index key;
      close_if_empty t from
    end

  let evict t =
    let first = Dlist_arena.first t.arena t.chain in
    if first = Dlist_arena.nil then None
    else begin
      let key = Dlist_arena.key t.arena (Dlist_arena.first t.arena (bucket_at t first).keys) in
      remove t key;
      Some key
    end

  let insert t ~pos key =
    let node = Int_table.get t.index key in
    if node >= 0 then begin
      (* Repositioning a resident key: [Cold] demotes it to frequency
         zero, [Hot] counts as an access. *)
      touch t node ~pos;
      None
    end
    else begin
      (* A new key enters the count-0 bucket; a demanded one then counts
         its first access, landing as the newest key of count 1. *)
      let victim = if size t >= t.capacity then evict t else None in
      let zero = bucket_after t Dlist_arena.nil 0 in
      let node = Dlist_arena.push_back t.arena zero.keys key in
      Int_table.set t.owner node (Dlist_arena.key t.arena zero.link);
      Int_table.set t.index key node;
      if pos = Policy.Hot then touch t node ~pos;
      victim
    end

  (* Highest count first, newest touch first within a count. *)
  let contents t =
    Dlist_arena.fold t.arena t.chain ~init:[] ~f:(fun acc id ->
        Dlist_arena.fold t.arena t.buckets.(id).keys ~init:acc ~f:(fun acc key -> key :: acc))

  let clear t =
    let rec loop () =
      let link = Dlist_arena.first t.arena t.chain in
      if link <> Dlist_arena.nil then begin
        Dlist_arena.clear_list t.arena (bucket_at t link).keys;
        Dlist_arena.move_to_back t.arena t.spare link;
        loop ()
      end
    in
    loop ();
    Int_table.clear t.index;
    Int_table.clear t.owner

  let frequency t key =
    let node = Int_table.get t.index key in
    if node < 0 then None else Some t.buckets.(Int_table.get t.owner node).count
end

include Policy.Weighted_of_unit (Core)

let frequency t key = Core.frequency (core t) key
