(** Monotonic-clock timing sections and their Chrome trace export.

    This module is the repository's only clock access point: simulation
    and harness code takes timestamps exclusively through {!now_ns} /
    {!record} so reproducibility-sensitive paths cannot accidentally
    branch on wall-clock time (ci.sh greps for direct clock calls).

    A {!recorder} collects completed spans from any number of domains
    (appends are mutex-protected, so sweep cells running on an
    [Agg_util.Pool] can share one recorder) and exports them in the Chrome
    [trace_event] JSON format, loadable in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}. *)

val now_ns : unit -> int64
(** Nanoseconds on the monotonic clock; meaningful only as differences. *)

val seconds_since : int64 -> float
(** [seconds_since t0] is the elapsed seconds since [t0 = now_ns ()]. *)

type span = {
  name : string;
  cat : string;  (** Chrome trace category, e.g. ["fig3"] *)
  start_ns : int64;
  dur_ns : int64;
  tid : int;  (** domain id that ran the section *)
}

type recorder

val recorder : unit -> recorder
(** A fresh recorder; its creation instant becomes the trace's time 0. *)

val record : recorder -> ?cat:string -> string -> (unit -> 'a) -> 'a
(** [record r name f] runs [f], appends a completed span (even when [f]
    raises) and returns [f]'s result. Thread-safe. [cat] defaults to
    ["sweep"]. *)

val spans : recorder -> span list
(** All completed spans, sorted by start time. *)

val count : recorder -> int
val seconds_of : span -> float
val total_seconds : recorder -> float

val json_escape : string -> string
(** The body of a JSON string literal for [s] (no surrounding quotes):
    ["\""] and ["\\"] are backslash-escaped, newline becomes ["\n"] and
    every other control character below [0x20] becomes ["\u00XX"]. Bytes
    from [0x20] up pass through unchanged. The Chrome-trace, scenario
    and bench JSON writers all escape their strings with this. *)

val chrome_json : recorder -> string
(** The spans as a Chrome [trace_event] document:
    [{"displayTimeUnit": "ms", "traceEvents": [{"ph": "X", ...}, ...]}]
    with timestamps in microseconds relative to the recorder's origin. *)

val write_chrome : out_channel -> recorder -> unit
(** {!chrome_json} to a channel. *)
