type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let default_seed = 0x1db5_2cec_6a2f_7b4

(* SplitMix64: used only to expand a seed into the 256-bit xoshiro state.
   Its output is well distributed even for adjacent seeds. *)
let[@inline] splitmix_mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let splitmix64 state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  splitmix_mix !state

(* The generator SplitMix64 seeds from [start]. *)
let of_start start =
  let state = ref start in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let create ?(seed = default_seed) () = of_start (Int64.of_int seed)
let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t = of_start (bits64 t)

(* Fold the parent's full 256-bit state with the (injectively scaled)
   stream index into one SplitMix64 seed; the parent is not advanced, so
   [derive t i] is a pure function of [t]'s current state and [i]. *)
let[@inline] derive_start t index =
  let key =
    Int64.logxor
      (Int64.logxor t.s0 (rotl t.s1 13))
      (Int64.logxor (rotl t.s2 27) (rotl t.s3 41))
  in
  Int64.logxor key (Int64.mul (Int64.of_int index) 0x9E3779B97F4A7C15L)

let derive t index = of_start (derive_start t index)

(* A non-negative 62-bit integer: plenty for array indices, and it avoids
   having to reason about [min_int] when taking remainders. *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

(* Single draws without a generator. xoshiro256**'s first output reads
   only [s1], and a SplitMix64 seeding sets [s1] to its second output,
   the mix of [start + 2 * gamma]. So the first [bits62] of a fresh
   generator is a closed-form function of the seeding [start]. Inlined
   into straight-line code over [int64] lets, which the native compiler
   keeps unboxed: no generator, no allocation. *)
let[@inline] first_bits62 start =
  let open Int64 in
  let s1 = splitmix_mix (add start 0x3C6EF372FE94F82AL (* 2 * 0x9E3779B97F4A7C15, wrapped *)) in
  to_int (shift_right_logical (mul (rotl (mul s1 5L) 7) 9L) 2)

let seeded_bits62 seed = first_bits62 (Int64.of_int seed)
let derived_bits62 t index = first_bits62 (derive_start t index)

(* [float t 1.0] reads the top 53 of the 64 output bits, which are the
   top 53 of the 62 [bits62] keeps. *)
let bernoulli_of_bits62 bits ~p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else Stdlib.float_of_int (bits lsr 9) /. 9007199254740992.0 < p

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let max62 = (1 lsl 62) - 1 in
  let limit = max62 - (max62 mod bound) in
  let rec loop () =
    let v = bits62 t in
    if v >= limit then loop () else v mod bound
  in
  loop ()

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in_range: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits mapped to [0, 1), the standard double-precision trick. *)
  let mantissa = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  let unit = Stdlib.float_of_int mantissa /. 9007199254740992.0 in
  unit *. bound

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0

let bernoulli t ~p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))
