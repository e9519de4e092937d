(** An unboxed recorder for per-access latencies: a growable
    [Float.Array] with an in-order sum and order statistics found by
    in-place selection instead of a full sort.

    [push] stores the float flat (no box per sample), and an order
    statistic costs expected O(n) with no allocation, where
    [Array.sort compare] over a [float array] costs O(n log n) and boxes
    both operands of every comparison. *)

type t

val create : unit -> t
val length : t -> int

val push : t -> float -> unit
(** Record one latency. *)

val mean : t -> float
(** [total / length], where [total] is the left-to-right sum of the
    samples in push order — bit-identical to
    [Array.fold_left ( +. ) 0.0] over them, whatever order statistics
    were taken since. [0.] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] is the sample at index [floor ((length - 1) * p)] of
    the samples in ascending [Float.compare] order — the element
    [Array.sort compare] then indexing would return, bit for bit (on
    samples that do not mix [0.] and [-0.], which compare equal). [0.]
    when empty. Reorders the stored samples in place; their multiset,
    and so every later [percentile] and [mean], is unchanged.
    @raise Invalid_argument when [p] is outside [\[0, 1\]]. *)
