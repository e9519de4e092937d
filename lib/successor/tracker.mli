(** The relationship-metadata store: one bounded successor list per file,
    updated online from the observed access sequence. This is exactly the
    server-side metadata of the aggregating cache (paper §3) — "no effort
    is made to extend the information tracked beyond a single immediate
    successor". *)

type t

val create :
  ?capacity:int -> ?policy:Successor_list.policy -> ?per_client:bool -> unit -> t
(** [create ()] tracks up to [capacity] (default 8) successors per file
    with [policy] (default [Recency]). With [per_client:true] the "previous
    file" context is kept per client id, so interleaved client streams do
    not pollute each other's succession — one of the predictive-model
    choices discussed in §2.2 (default [false]: the raw global sequence,
    as in the paper's evaluation). *)

val capacity : t -> int
val policy : t -> Successor_list.policy

val observe : t -> ?client:int -> Agg_trace.File_id.t -> unit
(** Feed the next file of the access sequence. Updates the successor list
    of the previously observed file (for this client's context when
    [per_client] is set) and makes this file the new context. *)

val observe_client : t -> client:int -> Agg_trace.File_id.t -> unit
(** [observe_client t ~client file] is [observe t ~client file] with a
    non-optional client. Passing [~client] to {!observe} boxes it in an
    option at every call; this allocates nothing (under [Recency], once
    the tables have grown to the namespace). {!observe} is a wrapper over
    it. *)

val observe_event : t -> Agg_trace.Event.t -> unit
val observe_trace : t -> Agg_trace.Trace.t -> unit

val successor_count : t -> Agg_trace.File_id.t -> int
(** Number of successors recorded for a file; [0] for unknown files. *)

val successor : t -> Agg_trace.File_id.t -> int -> Agg_trace.File_id.t
(** [successor t f i] is the [i]-th ranked successor of [f] ([0] = most
    likely): element [i] of [successors t f], read in place. With
    {!successor_count} it lets hot paths walk a list without building
    it — under [Recency] each read is one array access and allocates
    nothing.
    @raise Invalid_argument when [i] is outside
    [\[0, successor_count t f)]. *)

val successors : t -> Agg_trace.File_id.t -> Agg_trace.File_id.t list
(** Ranked most-likely first; empty for unknown files. Builds a list —
    a convenience over {!successor_count} and {!successor}. *)

val top_successor : t -> Agg_trace.File_id.t -> Agg_trace.File_id.t option

val transitive_successors : t -> Agg_trace.File_id.t -> length:int -> Agg_trace.File_id.t list
(** [transitive_successors t f ~length] is the predicted access sequence
    after [f] (§3): recursively follow the most likely immediate
    successor, stopping at [length] files, on a cycle, or when a file has
    no recorded successor. [f] itself is not included; the result contains
    no duplicates and never contains [f]. *)

val tracked_files : t -> int
(** Number of files with a non-empty successor list. *)

val reset_context : t -> unit
(** Forget the "previous file" context(s) without touching the metadata —
    used at trace boundaries. *)
