(** Executable reference model of the [.trc] reader: the line-at-a-time
    reader that {!Agg_trace.Codec}'s byte scanner replaced, kept verbatim
    as the specification. Every line goes through [String.trim],
    [String.split_on_char] and [int_of_string_opt]; no chunk buffer and
    no shared code with the scanner. *)

val read_channel_weighted : in_channel -> Agg_trace.Trace.t * Agg_trace.Weights.t
(** Lines read with [input_line].
    @raise Agg_trace.Codec.Parse_error on malformed input. *)

val of_string_weighted : string -> Agg_trace.Trace.t * Agg_trace.Weights.t
(** Lines split with [String.split_on_char '\n'].
    @raise Agg_trace.Codec.Parse_error on malformed input. *)
