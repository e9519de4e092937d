open Agg_util
module Policy = Agg_cache.Policy

(* The one rent core, shared by [Landlord] and [Bundle]. Residents live in
   an indexed binary min-heap: parallel arrays indexed by heap slot hold
   each resident's key, GreedyDual-Size priority [H = L + cost/size], size
   and recency stamp, and [index] maps key -> slot. Instead of draining
   credits, eviction raises the global inflation floor [L] to the victim's
   priority, which ages every other resident for free.

   The heap order is [(H, stamp)], lexicographic. A Hot insert or a
   promote takes a fresh stamp from the top ([hot] counts up), a Cold
   insert or reposition from the bottom ([cold] counts down), so stamp
   order is recency order, hot end largest. The root is therefore the
   minimal-H resident with ties broken towards the cold end. Every size
   is at least 1, so the arrays hold at most [capacity] residents and
   never grow. *)
type t = {
  cap : int;
  index : Int_table.t; (* key -> heap slot *)
  keys : int array; (* slot -> key *)
  h : float array; (* slot -> priority *)
  sizes : int array; (* slot -> size *)
  stamps : int array; (* slot -> recency stamp *)
  mutable inflation : float; (* L, non-decreasing *)
  mutable hot : int; (* last stamp handed to the hot end *)
  mutable cold : int; (* last stamp handed to the cold end *)
  mutable count : int;
  mutable used : int;
}

let policy_name = "gds"

let create ~capacity =
  if capacity <= 0 then invalid_arg "Greedy_dual.create: capacity must be positive";
  {
    cap = capacity;
    index = Int_table.create ~capacity ();
    keys = Array.make capacity 0;
    h = Array.make capacity 0.0;
    sizes = Array.make capacity 1;
    stamps = Array.make capacity 0;
    inflation = 0.0;
    hot = 0;
    cold = 0;
    count = 0;
    used = 0;
  }

let capacity t = t.cap
let size t = t.count
let used t = t.used
let mem t key = Int_table.get t.index key >= 0
let priority t ~size ~cost = t.inflation +. (float_of_int cost /. float_of_int size)

let contents t =
  List.init t.count (fun i -> (t.stamps.(i), t.keys.(i)))
  |> List.sort (fun ((a : int), _) (b, _) -> compare b a)
  |> List.map snd

(* --- heap maintenance ----------------------------------------------------

   Sifts move a hole rather than swapping: the displaced entry is held in
   locals, the entries it passes shift one level into the hole, and it is
   written once where it lands. *)

let below (h1 : float) (s1 : int) h2 s2 = h1 < h2 || (h1 = h2 && s1 < s2)

let place t i key h size stamp =
  t.keys.(i) <- key;
  t.h.(i) <- h;
  t.sizes.(i) <- size;
  t.stamps.(i) <- stamp;
  Int_table.set t.index key i

let move t ~src ~dst = place t dst t.keys.(src) t.h.(src) t.sizes.(src) t.stamps.(src)

let rec sift_up t i h stamp =
  if i = 0 then i
  else
    let p = (i - 1) / 2 in
    if below h stamp t.h.(p) t.stamps.(p) then begin
      move t ~src:p ~dst:i;
      sift_up t p h stamp
    end
    else i

let rec sift_down t i h stamp =
  let l = (2 * i) + 1 in
  if l >= t.count then i
  else
    let r = l + 1 in
    let c = if r < t.count && below t.h.(r) t.stamps.(r) t.h.(l) t.stamps.(l) then r else l in
    if below t.h.(c) t.stamps.(c) h stamp then begin
      move t ~src:c ~dst:i;
      sift_down t c h stamp
    end
    else i

(* Seats the entry held at slot [src] into the hole at slot [i]; with
   [src = i] it re-seats an entry whose priority or stamp changed. *)
let reseat t ~src i =
  let key = t.keys.(src) and h = t.h.(src) and size = t.sizes.(src) and stamp = t.stamps.(src) in
  let j = sift_up t i h stamp in
  let j = if j = i then sift_down t i h stamp else j in
  place t j key h size stamp

(* Drops slot [i]: the last entry fills the hole and is re-seated. *)
let delete t i =
  Int_table.remove t.index t.keys.(i);
  t.used <- t.used - t.sizes.(i);
  t.count <- t.count - 1;
  if i < t.count then reseat t ~src:t.count i

let next_stamp t (pos : Policy.insert_position) =
  match pos with
  | Policy.Hot ->
      t.hot <- t.hot + 1;
      t.hot
  | Policy.Cold ->
      t.cold <- t.cold - 1;
      t.cold

(* --- Policy.S --------------------------------------------------------- *)

let promote t key =
  let i = Int_table.get t.index key in
  if i >= 0 then begin
    t.stamps.(i) <- next_stamp t Policy.Hot;
    reseat t ~src:i i
  end

let charge t key ~cost =
  if cost <= 0 then invalid_arg "Greedy_dual.charge: cost must be positive";
  let i = Int_table.get t.index key in
  if i >= 0 then begin
    t.h.(i) <- priority t ~size:t.sizes.(i) ~cost;
    reseat t ~src:i i
  end

let evict t =
  if t.count = 0 then None
  else begin
    let victim = t.keys.(0) in
    t.inflation <- t.h.(0);
    delete t 0;
    Some victim
  end

let insert t ~pos ~weight:(w : Policy.weight) key =
  Policy.check_weight ~who:policy_name w;
  let i = Int_table.get t.index key in
  if i >= 0 then begin
    (* reposition only; priority and recorded weight are untouched *)
    t.stamps.(i) <- next_stamp t pos;
    reseat t ~src:i i;
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
    let i = t.count in
    t.count <- i + 1;
    t.used <- t.used + w.Policy.size;
    place t i key (priority t ~size:w.Policy.size ~cost:w.Policy.cost) w.Policy.size
      (next_stamp t pos);
    reseat t ~src:i i;
    List.rev !victims
  end

let remove t key =
  let i = Int_table.get t.index key in
  if i >= 0 then delete t i

let clear t =
  Int_table.clear t.index;
  t.count <- 0;
  t.used <- 0;
  t.hot <- 0;
  t.cold <- 0;
  t.inflation <- 0.0
