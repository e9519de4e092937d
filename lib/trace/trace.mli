(** An in-memory access trace: the sequence of file-access events driving
    every simulation. *)

type t

val create : unit -> t
val append : t -> Event.t -> unit
(** Events must be appended in sequence order; [seq] fields are trusted as
    given (the workload generators produce them densely from 0). *)

val add_access : t -> ?client:int -> ?op:Event.op -> File_id.t -> unit
(** [add_access t file] appends an event with the next sequence number. *)

val length : t -> int
val get : t -> int -> Event.t
val iter : (Event.t -> unit) -> t -> unit
val fold : ('acc -> Event.t -> 'acc) -> 'acc -> t -> 'acc
val files : t -> File_id.t array
(** The bare file-id sequence, in order — what the cache simulators and
    entropy calculations consume. *)

val dense_ids : t -> File_id.t array * File_id.t array
(** [dense_ids t] is [(ids, raw)]: the trace's file-id sequence over a
    dense id space, and the dense → raw map, so [raw.(ids.(i))] is event
    [i]'s file. When every id lies in [\[0, length t)] the ids are
    already dense enough to index tables directly: [ids] is {!files} and
    [raw] the identity on [\[0, largest id\]]. Otherwise the ids are
    interned ({!File_id.Interner}) in first-seen order, and tables
    indexed by them are sized by the number of distinct files. *)

val of_files : ?client:int -> File_id.t list -> t
(** A trace of [Open] events over the given file sequence. *)

val of_events : Event.t list -> t
val to_events : t -> Event.t list
val distinct_files : t -> int
(** Number of distinct file ids appearing in the trace. *)

val sub : t -> pos:int -> len:int -> t
(** Copy of a slice, with events renumbered from 0.
    @raise Invalid_argument when the slice is out of bounds. *)

val concat : t -> t -> t
(** [concat a b] is a new trace with [b]'s events renumbered after [a]'s. *)
