(** GreedyDual-Size — Cao & Irani's generalization of GreedyDual to
    files with sizes and retrieval costs.

    Each resident carries a priority [H = L + cost/size], assigned when
    it is inserted and refreshed via {!val-charge} on a demand hit; the
    eviction victim is the minimal-[H] resident and the inflation floor
    [L] rises to its priority, aging everything else implicitly. Ties are
    resolved towards the least recently used, which makes the policy
    access-for-access identical to LRU at unit size/cost.

    Residents sit in an indexed binary min-heap keyed by [(H, recency
    stamp)], so {!val-promote}, {!val-charge}, {!val-insert} (per
    victim), {!val-remove} and {!val-evict} cost O(log n). {!val-contents}
    sorts by stamp, O(n log n); only tests and the oracle call it.

    This is the one rent core: {!Landlord} and {!Bundle} run on it. It
    equals Landlord's credit-draining form in exact arithmetic and
    differs from it only on float rounding ties.

    Implements {!Agg_cache.Policy.S}; wrap with
    [Agg_cache.Cache.of_policy] for statistics. Deterministic: draws no
    randomness at all. *)

include Agg_cache.Policy.S
