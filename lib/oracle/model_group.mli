(** Executable reference model of retrieval-group construction: the
    list-based immediate/transitive builder that
    {!Agg_core.Group_builder} replaced with its in-place [fill], kept
    verbatim as the specification. Lists, [List.filter], [List.mem] — no
    buffers and no shared code with the optimized builder. *)

val build : successors:(int -> int list) -> group_size:int -> int -> int list
(** [build ~successors ~group_size file] is the retrieval group for
    [file] given each file's ranked successors (most likely first):
    [file], then for [group_size <= 3] its most likely immediate
    successors, and for larger groups the most-likely chain with
    fallback to the deepest member that still offers an unseen
    successor. At most [group_size] files, no duplicates.
    @raise Invalid_argument when [group_size <= 0]. *)

val of_tracker : Agg_successor.Tracker.t -> group_size:int -> int -> int list
(** {!build} over a tracker's {!Agg_successor.Tracker.successors} lists —
    what [Group_builder.fill] must reproduce. *)
