(* [sum] is a one-cell float array rather than a mutable record field: a
   float field in a mixed record is boxed on every write, a Float.Array
   cell is not. It accumulates in push order, so [mean] stays the
   in-order sum even after selection has permuted [data]. *)
type t = { mutable data : Float.Array.t; mutable size : int; sum : Float.Array.t }

let create () = { data = Float.Array.create 1024; size = 0; sum = Float.Array.make 1 0.0 }
let length t = t.size

let push t x =
  if t.size = Float.Array.length t.data then begin
    let data = Float.Array.create (2 * t.size) in
    Float.Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  Float.Array.unsafe_set t.data t.size x;
  t.size <- t.size + 1;
  Float.Array.unsafe_set t.sum 0 (Float.Array.unsafe_get t.sum 0 +. x)

let mean t = if t.size = 0 then 0.0 else Float.Array.get t.sum 0 /. float_of_int t.size

let swap a i j =
  let x = Float.Array.unsafe_get a i in
  Float.Array.unsafe_set a i (Float.Array.unsafe_get a j);
  Float.Array.unsafe_set a j x

(* Median of [a.(lo)], [a.(mid)], [a.(hi)]. *)
let median3 a lo hi =
  let x = Float.Array.get a lo
  and y = Float.Array.get a (lo + ((hi - lo) / 2))
  and z = Float.Array.get a hi in
  if Float.compare x y <= 0 then
    if Float.compare y z <= 0 then y else if Float.compare x z <= 0 then z else x
  else if Float.compare x z <= 0 then x
  else if Float.compare y z <= 0 then z
  else y

(* Quickselect with a three-way (Dijkstra) partition: after one round
   [a.(lo) .. a.(lt - 1)] < pivot = [a.(lt) .. a.(gt)] < [a.(gt + 1) ..
   a.(hi)], so a run of equal latencies — most of them, since latencies
   take a few discrete values — is settled in a single pass. Leaves the
   [k]-th smallest of [a.(lo) .. a.(hi)] at index [k]. *)
let rec select a lo hi k =
  if lo < hi then begin
    let pivot = median3 a lo hi in
    let lt = ref lo and i = ref lo and gt = ref hi in
    while !i <= !gt do
      let c = Float.compare (Float.Array.unsafe_get a !i) pivot in
      if c < 0 then begin
        swap a !lt !i;
        incr lt;
        incr i
      end
      else if c > 0 then begin
        swap a !i !gt;
        decr gt
      end
      else incr i
    done;
    if k < !lt then select a lo (!lt - 1) k else if k > !gt then select a (!gt + 1) hi k
  end

let percentile t p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Latencies.percentile: p must be in [0, 1]";
  if t.size = 0 then 0.0
  else begin
    let k = int_of_float (Float.of_int (t.size - 1) *. p) in
    select t.data 0 (t.size - 1) k;
    Float.Array.get t.data k
  end
