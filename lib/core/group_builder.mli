(** Best-effort construction of a retrieval group (paper §3, "Retrieving a
    Group of Successors"). For groups of two or three files the group is
    the requested file plus its most likely immediate successors; larger
    groups chain transitive "most-likely" predictions as far as possible,
    falling back to lower-ranked immediate successors when the chain
    stalls. The result may be shorter than requested — the server makes a
    best effort, never a guarantee. *)

val fill :
  ?obs:Agg_obs.Sink.t ->
  Agg_successor.Tracker.t ->
  group_size:int ->
  Agg_trace.File_id.t ->
  int array ->
  int
(** [fill tracker ~group_size file buf] writes the retrieval group for
    [file] into the caller-owned buffer and returns its length [n]:
    [buf.(0) = file], then up to [group_size - 1] distinct predicted
    files in [buf.(1) .. buf.(n - 1)] (never [file] itself, no
    duplicates). Entries from [n] on are left as they were. The hot
    drivers ([Client_cache], [Server_cache], [Agg_system.Path],
    [Agg_cluster.Cluster]) each own one buffer and reuse it on every
    miss; under [Recency] metadata a call allocates nothing.

    Prefix invariant: for [group_size >= 4] the group is built greedily
    (each step depends only on the members so far), so on one tracker the
    group at [g] is a prefix of the group at any [g' >= g]. Groups of two
    or three use immediate successors instead and are not prefixes of
    the transitive ones.

    When [obs] is an enabled sink, a [Group_built] event is emitted per
    call (the default no-op sink costs one branch).
    @raise Invalid_argument when [group_size <= 0] or
    [Array.length buf < group_size]. *)

val build :
  ?obs:Agg_obs.Sink.t ->
  Agg_successor.Tracker.t ->
  group_size:int ->
  Agg_trace.File_id.t ->
  Agg_trace.File_id.t list
(** [build tracker ~group_size file] is {!fill} into a fresh buffer,
    returned as a list: [file] first, then the members. A convenience for
    one-off callers; the replay drivers use {!fill}.
    @raise Invalid_argument when [group_size <= 0]. *)
