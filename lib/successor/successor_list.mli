(** A per-file list of potential immediate successors with a small fixed
    capacity (paper §3, §4.4). The replacement policy for this *metadata*
    is the paper's central design question: recency (LRU) versus frequency
    (LFU); recency wins consistently (Fig. 5). *)

type policy =
  | Recency  (** keep the most recently observed successors (LRU) *)
  | Frequency  (** keep the most frequently observed successors (LFU) *)

val policy_name : policy -> string

type t

val create : capacity:int -> policy:policy -> t
(** @raise Invalid_argument when [capacity <= 0]. *)

val capacity : t -> int
val size : t -> int

val observe : t -> Agg_trace.File_id.t -> unit
(** [observe t succ] records that [succ] just followed this list's file,
    updating ranks and evicting per the policy when full. *)

val mem : t -> Agg_trace.File_id.t -> bool

val ranked : t -> Agg_trace.File_id.t list
(** Successors most-likely first: by recency under [Recency], by
    observation count (most recent first on ties) under [Frequency]. *)

val nth : t -> int -> Agg_trace.File_id.t
(** [nth t i] is element [i] of {!ranked} ([0] = most likely) without
    building the list. Under [Recency] it is one array read; under
    [Frequency] the ranking is re-sorted at most once per observation.
    @raise Invalid_argument when [i] is outside [\[0, size t)]. *)

val top : t -> Agg_trace.File_id.t option
(** The most likely successor, if any. *)

val observe_slots :
  int array -> off:int -> len:int -> capacity:int -> Agg_trace.File_id.t -> int
(** [observe_slots slots ~off ~len ~capacity succ] applies one [Recency]
    observation to the bare list region [slots.(off) ..
    slots.(off + len - 1)] (most recent first): a resident successor moves
    to the front, a fresh one is pushed, evicting the least recent entry
    when the region already holds [capacity]. Returns the new live length.
    This is the storage primitive behind {!observe} that [Tracker] uses to
    keep every file's list in one flat array. *)
