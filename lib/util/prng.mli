(** Deterministic pseudo-random number generation.

    Every simulation in this repository is driven by an explicit generator
    state so that experiments are reproducible run-to-run and seed-to-seed.
    The implementation is xoshiro256** seeded through SplitMix64, which is
    fast, has a 256-bit state, and passes the usual statistical batteries. *)

type t
(** Mutable generator state. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds a generator from a 63-bit seed. The default
    seed is a fixed constant, so two generators created without a seed
    produce identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]. Streams of
    the parent and child are statistically independent. *)

val derive : t -> int -> t
(** [derive t index] is a fresh generator determined purely by [t]'s
    current state and the stream [index]; [t] is {e not} advanced. Two
    parents in the same state derive identical children for the same
    index, and distinct indices yield statistically independent streams —
    the per-node / per-stream seeding idiom: give worker [i] the stream
    [derive base i] instead of ad-hoc seed arithmetic. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output. *)

val bits62 : t -> int
(** [bits62 t] is the next output's top 62 bits, a non-negative [int]. *)

val seeded_bits62 : int -> int
(** [seeded_bits62 seed = bits62 (create ~seed ())] for every [seed],
    computed without building the generator: xoshiro256**'s first output
    depends only on the second SplitMix64 word of the seeding, so it is a
    closed-form function of [seed]. Allocates nothing — the single-draw
    idiom for counter-based decisions ({!Agg_faults.Plan}). *)

val derived_bits62 : t -> int -> int
(** [derived_bits62 t index = bits62 (derive t index)] for every [index],
    computed without building the derived generator (see
    {!seeded_bits62}); [t] is not advanced. Allocates nothing. *)

val bernoulli_of_bits62 : int -> p:float -> bool
(** [bernoulli_of_bits62 b ~p] is the Bernoulli trial {!bernoulli} makes
    when its generator's next {!bits62} output is [b]:
    [bernoulli_of_bits62 (seeded_bits62 s) ~p = bernoulli (create ~seed:s ()) ~p].
    [b] must be a {!bits62} output (non-negative). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive.
    Uses rejection sampling, so the result is unbiased. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range t ~lo ~hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place, uniformly (Fisher–Yates). *)

val choose : t -> 'a array -> 'a
(** [choose t a] is a uniformly random element of [a].
    @raise Invalid_argument if [a] is empty. *)
