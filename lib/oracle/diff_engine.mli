(** The differential test engine: drives optimized implementations and
    the {!Model_cache} / {!Model_successor} / {!Model_system} reference
    models in lockstep and reports the first divergence.

    Two generators feed it: random operation sequences over the full
    {!Agg_cache.Policy.S} surface ([insert ~pos], [promote], [evict],
    [mem], [remove], [clear]) with greedy shrinking to a minimal
    reproducing op list, and calibrated-workload traces from every
    {!Agg_workload.Profile} replayed end-to-end. Cross-cutting paper
    invariants (metrics conservation, Belady optimality, group size 1 ≡
    plain LRU) are checked on the same traces. All generation is driven
    by {!Agg_util.Prng} from an explicit seed, so every failure is
    reproducible from the (seed, ops) pair printed in its detail. *)

type op =
  | Insert of Agg_cache.Policy.insert_position * Agg_cache.Policy.weight * int
  | Promote of int
  | Charge of int * int  (** key, cost — the demand-hit re-credit hook *)
  | Evict
  | Mem of int
  | Remove of int
  | Clear

val op_to_string : op -> string

val ops_to_string : op list -> string
(** Semicolon-separated, suitable for a one-line counterexample report. *)

val gen_ops : Agg_util.Prng.t -> universe:int -> count:int -> op list
(** [count] unit-weight operations over keys in [\[0, universe)],
    weighted towards insertions so caches actually fill. *)

val gen_weighted_ops :
  Agg_util.Prng.t -> universe:int -> max_size:int -> max_cost:int -> count:int -> op list
(** Like {!gen_ops} but inserts carry sizes in [\[1, max_size\]] and
    costs in [\[1, max_cost\]], and the mix includes [Charge] and
    [Remove] ops.
    @raise Invalid_argument when [universe], [max_size] or [max_cost] is
    non-positive. *)

type divergence = { step : int  (** 0-based op index *); detail : string }

val diff_ops : Agg_cache.Cache.kind -> capacity:int -> op list -> divergence option
(** Runs the ops through the optimized policy and its model, comparing
    insert victims, evict victims, [mem] answers, sizes, used totals and
    resident sets after every operation — and that the conservation
    invariant [used <= capacity] holds. [None] means lockstep agreement
    throughout. @raise Invalid_argument when [capacity <= 0]. *)

type weighted_policy = Landlord | Gds | Bundle
(** The weighted baselines of [Agg_baselines], paired with the
    list-based reference restatement of the same arithmetic form in
    {!Model_cache}: [Landlord] and [Gds] with {!Model_cache.Gds},
    [Bundle] with {!Model_cache.Bundle}. *)

val weighted_policy_name : weighted_policy -> string
val all_weighted_policies : weighted_policy list

val diff_weighted_ops : weighted_policy -> capacity:int -> op list -> divergence option
(** {!diff_ops} for a weighted baseline vs its reference model.
    @raise Invalid_argument when [capacity <= 0]. *)

val diff_ops_mutant : capacity:int -> op list -> divergence option
(** Same lockstep run, but the subject is a deliberately broken LRU that
    promotes to the {e cold} end — the engine's own smoke test. A [None]
    result from a non-trivial op list means the engine has lost its
    teeth. *)

val shrink_ops : (op list -> bool) -> op list -> op list
(** [shrink_ops fails ops] greedily removes windows of operations while
    [fails] keeps holding, returning a (locally) minimal failing list.
    [ops] itself must satisfy [fails]. *)

type check = { name : string; cases : int  (** operations / events compared *); pass : bool; detail : string }

val fuzz_policy : seed:int -> ops:int -> Agg_cache.Cache.kind -> check
(** At least [ops] generated unit-weight operations against the policy's
    model, in rounds of fresh caches with varying capacities. On
    divergence the detail carries the capacity and the shrunk op list. *)

val fuzz_policy_weighted : seed:int -> ops:int -> Agg_cache.Cache.kind -> check
(** Like {!fuzz_policy} but with mixed-weight op sequences (sizes up to
    one past the round's capacity, so the oversize bypass and the
    multi-victim path are both exercised). *)

val fuzz_weighted_policy : seed:int -> ops:int -> weighted_policy -> check
(** Mixed-weight fuzz of a weighted baseline against its reference
    model. *)

val fuzz_all : seed:int -> ops:int -> check list
(** [fuzz_policy] and [fuzz_policy_weighted] for every kind in
    {!Agg_cache.Cache.all_kinds}, [fuzz_weighted_policy] for every
    weighted baseline, plus [young.landlord]: [Agg_baselines.Landlord]
    (inflation form) against the drain-form {!Model_cache.Landlord} over
    inserts, promotes, charges and removes with sizes in
    [{1, 2, 4, 8, 16}] and costs in [\[1, 9\]]. With those weights every
    credit and priority is a multiple of 1/16, both forms compute
    exactly, and Young's equivalence says they evict the same victims. *)

val lru_equivalence_checks : seed:int -> events:int -> check list
(** Per profile and per weighted baseline: at unit size/cost the policy
    must be access-for-access identical to LRU — hit answers, eviction
    victims and the exact recency order are compared over the profile's
    calibrated trace. *)

val mutant_check : seed:int -> ops:int -> check
(** Passes iff the engine {e catches} the seeded LRU mutant; the detail
    shows the shrunk counterexample it found. *)

val group_diff :
  policy:Agg_successor.Successor_list.policy -> capacity:int -> int array -> int * string option
(** [group_diff ~policy ~capacity files] feeds [files] to one
    {!Agg_successor.Tracker} and, after every observation, compares
    {!Agg_core.Group_builder.fill} with {!Model_group} at every group size
    in [\[1, 12\]] for the file just seen and for an older anchor; for
    [g >= 4] it also checks the prefix invariant (the group at [g] is a
    prefix of the group at 12). Returns the number of groups compared
    and the first divergence, if any. *)

val group_checks : seed:int -> ops:int -> check list
(** Per metadata policy ([Recency], [Frequency]) and successor capacity
    (1, 2, 4, 8): {!group_diff} over generated streams mixing sequential
    runs and random jumps on small universes, at least [ops / 4] events
    each. *)

val successor_checks : seed:int -> events:int -> check list
(** Per profile: every successor-list scheme (recency, frequency, at
    several capacities) and the perfect oracle, driven over the profile's
    trace in lockstep with their models — membership answers, ranked
    orders and top predictions compared at every observation. *)

val trace_checks : seed:int -> events:int -> check list
(** Per profile: every policy replayed through {!Agg_cache.Cache} vs
    {!Model_cache}; the aggregating client (tail and head insertion) vs
    {!Model_system.Client}; the two-level system (plain and cooperative)
    vs {!Model_system.Server}; plus the cross-cutting invariants
    (metrics conservation, no policy beats Belady, group size 1 ≡ plain
    LRU). *)

val codec_diff : string -> string option
(** [codec_diff input] reads [input] with {!Agg_trace.Codec}'s scanner —
    [of_string_weighted], [read_channel_weighted] and [fold_channel],
    the last two through a temporary file — and with {!Model_codec}. The
    events and weights must be equal, or both sides must raise the same
    [Parse_error { line; message }]. [None] means agreement. *)

val codec_write_diff : ?weights:Agg_trace.Weights.t -> Agg_trace.Trace.t -> string option
(** [None] when [to_string] and [write_channel] produce the same bytes
    and reading them back gives the trace and weights again. *)

val gen_codec_input : Agg_util.Prng.t -> events:int -> mutations:int -> string
(** A canonical trace of [events] events (random ops, fields from one
    digit to 18 digits, sometimes weight lines and a padding comment of
    up to 4 KiB) with [mutations] corrupted lines: random bytes, spaces,
    tabs, CR, signs, [0x] and [_] literals, 19-digit fields, weight
    lines, comments and truncation. *)

val codec_checks : seed:int -> ops:int -> check list
(** {!codec_diff} over [ops / 20] small mutated inputs
    ([codec.lockstep]) and over four inputs larger than the scanner's
    64 KiB chunk ([codec.lockstep.chunked]), plus {!codec_write_diff}
    over generated traces ([codec.writer]). *)

val path_relabel_diff :
  Agg_system.Path.config -> int array -> relabel:(int -> int) -> string option
(** [path_relabel_diff config files ~relabel] replays [files] and their
    image under the injective [relabel] through {!Agg_system.Path.run},
    each with a memory sink and a trace context sampling half the
    requests. The results must be equal, the relabelled run's events
    must be the original's relabelled, and every span of both runs must
    carry the raw id its request accessed. *)

val gen_relabelling : Agg_util.Prng.t -> universe:int -> int -> int
(** An injective relabelling of [\[0, universe)]; about half of the
    images are 2^40 or larger. *)

val path_relabel_families : (string * (string * Agg_system.Path.config) list) list
(** The configurations {!path_relabel_checks} covers, by family:
    [plain] (every cache kind at both tiers), [agg-client] and
    [agg-both] (g in 1, 2, 3, 5, 7), each with and without a hostile
    fault plan (loss, outages and client crashes). *)

val path_relabel_checks : seed:int -> ops:int -> check list
(** {!path_relabel_diff} on generated streams over at most 32 files
    (so the original ids take {!Agg_trace.Trace.dense_ids}' identity
    branch and the relabelled ones the interner), at small capacities:
    one check per {!path_relabel_families} family, named
    [path.relabel.<family>]. *)

val single_draw_diff : seed:int -> index:int -> string option
(** [None] when [Prng.seeded_bits62 seed = Prng.bits62 (Prng.create ~seed ())]
    and [Prng.derived_bits62 p index = Prng.bits62 (Prng.derive p index)]
    for [p] the generator [Prng.create ~seed ()] after one draw; otherwise
    the first mismatch. *)

val bernoulli_bits_diff : seed:int -> string option
(** [None] when [Prng.bernoulli_of_bits62 (Prng.seeded_bits62 seed) ~p]
    equals [Prng.bernoulli (Prng.create ~seed ()) ~p] for p in
    \{0, 5e-324, 1e-9, 0.05, 0.1, 0.5, 1\} and for the three floats at
    and beside the draw's own unit value. *)

val gen_ring : Agg_util.Prng.t -> Agg_cluster.Ring.t
(** A ring of 1–6 nodes with 1–16 points each, after up to six random
    joins (ids below 12) and leaves. *)

val fill_group_diff : Agg_cluster.Ring.t -> replicas:int -> int -> string option
(** [None] when [Ring.fill_group], into a buffer two cells longer than the
    group, returns [min replicas (node_count ring)], writes exactly
    [Ring.group ring ~replicas file] and leaves the rest untouched. *)

val placement_diff : Agg_cluster.Cluster.config -> Agg_trace.Trace.t -> int * string option
(** Replays through {!Agg_cluster.Cluster.audit_placement} and compares
    every placement-table entry it is handed with a fresh [Ring.group]:
    the number of entries compared and the first mismatch. *)

val gen_placement_case : Agg_util.Prng.t -> Agg_cluster.Cluster.config * Agg_trace.Trace.t
(** A small cluster (1–5 nodes, k in 1–4, any metadata placement, healthy
    or hostile faults) with up to four valid churn ops, and a 50–449
    event trace over a small universe, with sparse ids (2^40 and up) half
    the time. *)

val placement_checks : seed:int -> ops:int -> check list
(** The cluster miss path's primitives against the code they replace:
    [prng.single_draw] ({!single_draw_diff} over edge ints and arbitrary
    seeds and indices), [prng.bernoulli_bits] ({!bernoulli_bits_diff}),
    [ring.fill_group] ({!fill_group_diff} on {!gen_ring} rings, replicas
    from 1 to members + 2) and [cluster.placement] ({!placement_diff} on
    {!gen_placement_case} cases). *)

val all_pass : check list -> bool
