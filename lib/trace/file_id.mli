(** File identifiers. Simulations work on dense integer ids; a {!Namespace}
    maps human-readable path names to ids for the codec and the examples,
    and an {!Interner} maps sparse integer ids to dense ones. *)

type t = int
(** Ids are plain non-negative integers so they can index arrays and key
    [Hashtbl]s without boxing. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

module Interner : sig
  (** Dense renumbering of raw integer ids (sparse inode numbers, say):
      each distinct id gets the next dense id [0, 1, 2, ...] in
      first-seen order. Open addressing over a power-of-two table that
      doubles at half load, so memory is proportional to the number of
      distinct ids, not to the largest one. *)

  type t

  val create : unit -> t

  val intern : t -> int -> int
  (** [intern t raw] is [raw]'s dense id, allocating the next one on
      first sight. Any [int] is a valid raw id. *)

  val raw_ids : t -> int array
  (** The dense → raw map: element [d] is the raw id interned as [d]. *)
end

module Namespace : sig
  (** Bidirectional interning of path names. *)

  type id = t
  type t

  val create : unit -> t
  val intern : t -> string -> id
  (** [intern t name] returns the id for [name], allocating the next dense
      id on first sight. *)

  val find : t -> string -> id option
  val name : t -> id -> string option
  (** The name interned for [id], if any. *)

  val count : t -> int
  val iter : t -> (string -> id -> unit) -> unit
end
