(** End-to-end simulation of the full distributed path of the paper's
    Fig. 2 — client cache, network, server cache, server store — with
    latency and load accounting, and (since the resilience layer) an
    optional deterministic fault plan driving message loss, server
    outages, slow links and client crashes.

    Each cache level is configured by a shared {!Scheme.t}: [Plain] for
    demand caching, [Aggregating] for group retrieval (the server keeps
    the relationship metadata, §3). An [Aggregating] {e server} walks the
    successor chain to its own (typically deeper) group size and stages
    the extension into its cache only — cheap disk readahead that is not
    transferred to the client.

    Resilience: a remote fetch blocked by the fault plan times out after
    [resilience.timeout_ms], retries up to [resilience.max_retries] times
    with exponential backoff, and — when the budget runs dry — degrades
    to a single-file demand fetch: the speculative group members are
    dropped, the demanded file is still served. With [faults = Plan.none]
    every output is byte-identical to a fault-free build. *)

type deployment = [ `Baseline | `Aggregating_client | `Aggregating_both ]
(** The paper's three named configurations, kept as a shorthand over
    {!Scheme.t} pairs (see {!with_deployment}). *)

val deployment_name : deployment -> string

type config = {
  cost : Cost_model.t;
  client_capacity : int;
  server_capacity : int;
  client : Scheme.t;  (** the client cache's scheme *)
  server : Scheme.t;  (** the server cache's scheme; [Aggregating] = staged readahead *)
  faults : Agg_faults.Plan.config;  (** fault plan; [Agg_faults.Plan.none] = healthy network *)
  resilience : Agg_faults.Resilience.t;  (** timeout / retry / degradation policy *)
  scope : Agg_obs.Scope.t option;
      (** observability, all in one place (default [None] = off, zero
          cost): the scope's [sink] receives
          {!Agg_obs.Event.Fetch_timeout}, [Fetch_degraded] and
          [Client_crashed] events; its [series] folds every access into
          the windowed time-series (hit/miss, demand latency in µs,
          degraded fetches, keyed by access index); its [trace_ctx]
          records span trees for sampled requests (client hit,
          per-attempt timeout/backoff, fetch or degraded fallback) on
          the simulated clock *)
}

val default_config : config
(** LAN costs, 300-file client, 1000-file server, plain LRU at both
    levels, no faults, no scope (telemetry off). *)

val with_deployment : ?group_size:int -> deployment -> config -> config
(** [with_deployment d config] sets [config]'s schemes to the named
    deployment: [`Baseline] is plain LRU at both levels;
    [`Aggregating_client] puts an aggregating client (default [g = 5])
    over a plain server; [`Aggregating_both] additionally stages
    [2 * group_size]-deep readahead at the server.
    @raise Invalid_argument when [group_size] is not positive. *)

type result = {
  accesses : int;
  client_hits : int;
  server_hits : int;  (** of requests reaching the server *)
  disk_reads : int;  (** demanded + speculative reads at the store *)
  files_transferred : int;  (** network payload, in files *)
  round_trips : int;  (** completed fetches; timed-out attempts are not counted *)
  mean_latency : float;  (** demand latency per access, ms — waits, backoff and
                             slow-link multipliers included *)
  p95_latency : float;
  p99_latency : float;
  faults : Agg_faults.Counters.t;  (** what the plan injected and the policy absorbed *)
}

val client_hit_rate : result -> float
(** [client_hits / accesses]; [0.] on an empty trace. *)

val run : config -> Agg_trace.Trace.t -> result
(** Replays the trace through the configured path. Deterministic: the
    fault plan is a pure function of its seed and the access index, so
    results are identical run-to-run and for any [--jobs] value.

    The replay runs on {!Agg_trace.Trace.dense_ids}, so memory follows
    the number of distinct files, not the largest id: a sparse real
    trace costs what its dense relabelling does, and the result is the
    same for any injective relabelling of the ids. Every id the scope
    sees — event payloads, span names, the trace context's [~file] — is
    the trace's raw id.
    @raise Invalid_argument on non-positive capacities, an invalid
    scheme, fault plan or resilience policy (see
    {!Agg_faults.Plan.validate} and {!Agg_faults.Resilience.validate}). *)

val pp_result : Format.formatter -> result -> unit
(** Prints the load/latency fields only (fault counters excluded), so
    fault-free output is identical to the pre-resilience layer. *)
