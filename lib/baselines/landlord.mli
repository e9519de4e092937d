(** Landlord — Young's rent-based algorithm for file caching with sizes
    and retrieval costs ({e On-Line File Caching}, SODA 1998).

    Every resident holds {e credit}, set to its retrieval cost when it is
    inserted and reset via {!val-charge} on a demand hit. When room is
    needed, every resident pays rent proportional to its size at the
    minimal credit/size ratio; the resident whose credit reaches zero is
    evicted (ties resolved towards the least recently used — which makes
    the policy access-for-access identical to LRU at unit size/cost).

    With full re-credit on a hit this is GreedyDual-Size in inflation
    form, so the module runs the shared {!Greedy_dual} core under the
    name ["landlord"]. In exact arithmetic the inflation form and the
    credit-draining form choose the same victims; in floats they differ
    only when two residents tie on priority up to rounding.
    [Agg_oracle.Model_cache.Landlord] keeps the draining form as the
    reference.

    Implements {!Agg_cache.Policy.S}; wrap with
    [Agg_cache.Cache.of_policy] for statistics. Deterministic: draws no
    randomness at all. *)

include Agg_cache.Policy.S
