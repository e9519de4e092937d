(** Executable reference models of every replacement policy in
    {!Agg_cache}.

    Each model re-implements the {!Agg_cache.Policy.S} semantics with
    plain lists and linear scans — deliberately slow, obviously correct —
    so the optimized implementations can be driven in lockstep against
    them by {!Diff_engine}. The models are {e behaviourally identical} to
    the optimized caches: same eviction victims, same resident sets, same
    return values, for any operation sequence (the [Random] policy shares
    the optimized cache's PRNG seed so even its victims coincide).

    The weighted surface restates {!Agg_cache.Policy.Weighted_of_unit}
    over the unit models: while every resident is unit-size, [insert]
    delegates to the model's native insert path; once non-unit sizes are
    resident, room is made by repeated evictions; oversize keys bypass
    the cache. The {!Landlord}, {!Gds} and {!Bundle} submodules are
    list-based restatements of the rent policies: {!Landlord} in Young's
    credit-draining form, {!Gds} and {!Bundle} in the inflation form that
    the weighted baselines in [Agg_baselines] run on. *)

type t

val create : ?seed:int -> Agg_cache.Cache.kind -> capacity:int -> t
(** [create kind ~capacity] is an empty reference cache. [seed] (default
    the seed used by {!Agg_cache.Cache.create}) only affects the [Random]
    kind. @raise Invalid_argument when [capacity <= 0]. *)

val kind : t -> Agg_cache.Cache.kind
val capacity : t -> int
val size : t -> int

val used : t -> int
(** Total resident size; equals {!size} at unit weights. *)

val mem : t -> int -> bool

val promote : t -> int -> unit
(** Records an access to a resident key; no-op when absent — mirrors
    [Policy.S.promote]. *)

val insert :
  t -> pos:Agg_cache.Policy.insert_position -> weight:Agg_cache.Policy.weight -> int -> int list
(** Mirrors [Policy.S.insert]: makes the key resident, evicting as many
    victims as its size requires, and returns them in eviction order; a
    resident key is only repositioned (returns [[]], never evicts); an
    oversize key bypasses the cache. *)

val charge : t -> int -> cost:int -> unit
(** Mirrors [Policy.S.charge] — a no-op for all ten unit-weight kinds. *)

val evict : t -> int option
(** Forces out the model's current victim; [None] when empty. *)

val remove : t -> int -> unit
val contents : t -> int list
(** Resident keys. ARC's are in the optimized cache's exact order (T2
    then T1, hot end first); compare other kinds as sets. *)

val clear : t -> unit
(** Mirrors [Policy.S.clear], including what it does {e not} reset (the
    [Random] PRNG stream continues, exactly like the optimized cache). *)

(** {2 Policy probes} *)

val arc_target : t -> int
(** ARC's adaptation target — the reference for [Agg_cache.Arc.target].
    @raise Invalid_argument when the model is not ARC. *)

val arc_in_t2 : t -> int -> bool
(** Whether the key is in ARC's frequent list T2 — the reference for
    [Agg_cache.Arc.in_t2]. @raise Invalid_argument when the model is not
    ARC. *)

val lfu_entries : t -> (int * int * int) list
(** Every LFU resident as [(key, count, tick)], in no particular order.
    [count] is the reference for [Agg_cache.Lfu.frequency]; ticks are
    unique, and sorting by [(count, tick)] descending gives the optimized
    cache's exact [contents] order. @raise Invalid_argument when the model
    is not LFU. *)

(** Reference Landlord (Young's rent-based file caching) in its
    credit-draining form: each resident holds credit, initially its
    retrieval cost; eviction charges every resident rent proportional to
    its size at the minimal credit/size ratio and removes the resident
    whose credit reaches zero (ties towards the cold end of the recency
    order). A demand hit re-credits the key via [charge].
    [Agg_baselines.Landlord] runs the inflation form ({!Gds}); the two
    agree exactly when every credit and priority is exactly
    representable, and may order a float rounding tie differently
    otherwise. *)
module Landlord : Agg_cache.Policy.S

(** Reference GreedyDual-Size: priority [H = L + cost/size] assigned on
    insertion and on [charge]; the victim is the minimal-[H] resident
    (ties towards the cold end) and the inflation floor [L] rises to the
    victim's priority. *)
module Gds : Agg_cache.Policy.S

(** Reference bundle-caching policy — {!Gds} (Landlord in inflation
    form) with the bundle entry point as the primary interface (Qin &
    Etesami's file-bundle setting, where an aggregated group fetch
    arrives as one request). *)
module Bundle : sig
  include Agg_cache.Policy.S

  val request_bundle : t -> weight_of:(int -> Agg_cache.Policy.weight) -> int list -> int list
  (** [request_bundle t ~weight_of keys] serves one bundle request:
      resident members are promoted and re-charged, missing members are
      inserted hot with their weights. Returns all victims in eviction
      order. Duplicate members are served once. *)
end
