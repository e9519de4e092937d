(** Least-frequently-used replacement: evicts the resident key with the
    fewest accesses since it entered the cache (in-cache frequency), oldest
    first on ties. Speculative ([Cold]) insertions start at frequency zero,
    demanded ([Hot]) insertions at one. O(1) per operation, and memory
    fixed by the capacity and key range, not by the number of hits. *)

include Policy.S

val frequency : t -> int -> int option
(** [frequency t key] is the current in-cache access count of [key]. *)
