(** Text serialisation of traces.

    The format is one event per line — [seq op client file] with [op] one
    of [o]/[r]/[w] — preceded by a [#aggtrace v1] header; [#] lines and
    blank lines are ignored. Optional [w file size cost] lines, anywhere
    after the header, declare a file's retrieval weight (see {!Weights});
    undeclared files are unit-weighted, and sizes/costs must be positive.
    Real traces (e.g. converted DFSTrace output) in this format can be
    replayed through every experiment in place of the synthetic
    workloads.

    {b Reading.} One byte scanner serves every reader: the channel
    readers refill a 64 KiB chunk buffer through [input] (it grows only
    to hold a single longer line), and {!of_string} scans its string in
    place. A canonical event line — [DIGITS SP op SP DIGITS SP DIGITS]
    with at most 18 digits per field, exactly what the writer emits — is
    parsed in place, allocating only the {!Event.t}. Every other line
    (the header, comments, blank lines, weight lines, extra or other
    whitespace, CR, signs, [0x] or [_] literals, 19 or more digits) goes
    to the one general line parser. So the accepted language and every
    [line N:] error message are those of the line-at-a-time reader this
    scanner replaced; [Agg_oracle.Model_codec] keeps that reader, and
    the [@differential] gate runs the two in lockstep.

    {b Writing.} {!write_channel} and {!to_string} share one emitter:
    decimals are formatted by hand into a [Buffer], flushed to the
    channel every 64 KiB. *)

exception Parse_error of { line : int; message : string }

val header : string

val write_channel : ?weights:Weights.t -> out_channel -> Trace.t -> unit
(** Weight declarations (sorted by file id) are written between the
    header and the event lines. *)

val read_channel : in_channel -> Trace.t
(** Weight lines are validated but discarded; use
    {!read_channel_weighted} to keep them.
    @raise Parse_error on malformed input. *)

val read_channel_weighted : in_channel -> Trace.t * Weights.t
(** @raise Parse_error on malformed input, including non-positive
    sizes or costs in weight lines. *)

val to_string : ?weights:Weights.t -> Trace.t -> string
val of_string : string -> Trace.t
(** @raise Parse_error on malformed input. *)

val of_string_weighted : string -> Trace.t * Weights.t
(** @raise Parse_error on malformed input. *)

val write_file : ?weights:Weights.t -> string -> Trace.t -> unit
val read_file : string -> Trace.t
(** @raise Parse_error on malformed input.
    @raise Sys_error when the file cannot be read. *)

val read_file_weighted : string -> Trace.t * Weights.t
(** @raise Parse_error on malformed input.
    @raise Sys_error when the file cannot be read. *)

val fold_channel : in_channel -> init:'a -> f:('a -> Event.t -> 'a) -> 'a
(** Streaming reader: folds over events without materialising a
    {!Trace.t} — for traces larger than memory, which it reads in
    64 KiB chunks. Weight lines are validated and skipped.
    @raise Parse_error on malformed input. *)

val fold_file : string -> init:'a -> f:('a -> Event.t -> 'a) -> 'a
val iter_file : string -> (Event.t -> unit) -> unit
