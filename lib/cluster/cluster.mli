(** A sharded multi-node server cluster in front of a fleet of client
    caches — the paper's Fig. 2 setting of many clients sharing a file
    server, generalised from one server to a {!Ring} of N role-symmetric
    nodes. Every file id is owned by a replication group of [replicas]
    nodes, any of which can serve it (the apothik Phase-3 design — no
    master/replica asymmetry, so failover is just "ask the next group
    member"). Events are routed to clients by their [client] id taken
    modulo [clients]; with write invalidation on, a write breaks every
    other client's cached copy (Coda-style).

    Resilience: when the fault plan is enabled, a fetch blocked by
    message loss or an outage window is retried up to
    [resilience.max_retries] times and then degrades to a single-file
    demand fetch — speculative group members are dropped, the demanded
    file is still served. A client crash wipes that client's cache.

    {b One server}: with [nodes = 1], [replicas = 1], [metadata =
    Owner_node] and no churn, the cluster is the single-server fleet:
    one cache and one successor tracker behind the clients, every fetch
    routed to node 0, which faults on the plan's own seed. The
    [aggsim fleet] verb, the bench's fleet section and the scenario
    executor's [topology fleet] cells all run this configuration. Nodes
    [> 0] fault independently on seeds drawn through
    {!Agg_util.Prng.derive}.

    {b Metadata placement} ({!metadata_placement}) is a config axis:

    - [Owner_node] — each node tracks successors of the files it
      primarily owns. At N = 1 this is the one server-side tracker; at
      larger N each node only links requests {e it} sees, and a failover
      target usually has no metadata for the file, so groups degenerate —
      the cost of sharding the metadata with the data.
    - [Replicated_with_group] — an observation is replicated to every
      group member, so any serving replica can build full groups at the
      price of k-way metadata write amplification.
    - [Client_side] — each client tracks its own stream and proposes
      groups itself; nodes hold no metadata (and stage no server-side
      readahead), and a client crash now destroys its metadata too — the
      paper's §3 argument for server-side placement, made measurable.

    All decisions flow through {!Agg_util.Prng}; runs are pure functions
    of (config, trace), independent of sweep layout or [--jobs]. *)

type metadata_placement = Owner_node | Replicated_with_group | Client_side

val placement_name : metadata_placement -> string
(** ["owner"], ["group"], ["client"] — stable labels for tables/CLI. *)

val placement_of_string : string -> metadata_placement option
(** Inverse of {!placement_name}. *)

val placements : metadata_placement list
(** All three placements, in sweep order. *)

type churn_op =
  | Join of int  (** node id joins the ring *)
  | Leave of int  (** node id departs, handing cached files over *)

type config = {
  nodes : int;  (** initial node count; ids [0 .. nodes-1] *)
  replicas : int;  (** replication-group size k (clamped to live nodes) *)
  ring_seed : int;  (** placement seed for the consistent-hash ring *)
  metadata : metadata_placement;
  clients : int;
  client_capacity : int;
  client_scheme : Agg_system.Scheme.t;
  node_capacity : int;  (** per-node server cache capacity *)
  node_scheme : Agg_system.Scheme.t;
  per_client_metadata : bool;
  write_invalidation : bool;
  cost : Agg_system.Cost_model.t;  (** latency model of the fetch path *)
  faults : Agg_faults.Plan.config;
      (** node 0 uses this seed verbatim; node [i > 0] uses a seed
          derived from it, so nodes fail independently *)
  resilience : Agg_faults.Resilience.t;
  churn : (int * churn_op) list;
      (** (time, op) pairs; an op fires just before the first access at
          [now >= time]. Ops beyond the trace never fire. *)
  scope : Agg_obs.Scope.t option;
      (** observability (default [None] = off, zero cost): the scope's
          [sink] receives ring/failover/timeout events; its [series]
          folds every access into the windowed time-series — hit/miss,
          demand latency (µs), degraded fetches and the per-node request
          load (degraded fallbacks count against the primary, mirroring
          [per_node_requests]); its [trace_ctx] records span trees for
          sampled requests — client hit, per-attempt timeout/backoff
          with replica-failover markers, group fetch at the serving node
          or degraded fallback at the primary — on the simulated
          clock *)
}

val default_config : config
(** The one-server fleet: 4 clients x 150 aggregating, a 300-file
    aggregating server, per-client metadata, write invalidation, LAN
    costs, no faults, on a single-node, single-replica, [Owner_node]
    ring with no churn and no scope (telemetry off). *)

type result = {
  accesses : int;
  client_hits : int;
  server_requests : int;
  server_hits : int;  (** summed over all node caches *)
  store_fetches : int;
  invalidations : int;
  per_client_hit_rate : (int * float) list;
  routed_fetches : int;  (** requests served by a live node *)
  failovers : int;
      (** retries re-aimed at a different group member than the attempt
          before them *)
  cross_shard_members : int;
      (** group members fetched from the store because the serving node
          is not in their replication group (never staged there) *)
  slowed_fetches : int;
      (** served fetches that rode a degraded link (kept out of
          [faults], whose slowed count stays zero) *)
  rebalances : int;  (** churn ops applied *)
  moved_files : int;  (** cached files whose placement a rebalance changed *)
  mean_latency : float;  (** ms per access, client hits included *)
  p95_latency : float;
  per_node_requests : (int * int) list;
      (** node id -> fetches served (routed + degraded), departed nodes
          included *)
  faults : Agg_faults.Counters.t;
}

val run : config -> Agg_trace.Trace.t -> result
(** Replays the trace through the fleet-and-cluster pair. Deterministic.
    The replay runs on {!Agg_trace.Trace.dense_ids}, so its memory is
    proportional to the number of distinct files, not to the largest
    id; the ring hashes, and every event and span names, the raw id.
    @raise Invalid_argument on an invalid config (non-positive counts or
    capacities, bad scheme/plan/resilience, negative churn time) or an
    inapplicable churn op (joining a present node, leaving an absent or
    the last node). *)

val audit_placement : config -> Agg_trace.Trace.t -> (Ring.t -> int -> int list -> unit) -> result
(** [audit_placement config trace check] is [run config trace], and it
    hands every filled entry of the replay's per-file placement table to
    [check ring file group] before and after each churn op and after the
    last access: [file] is the raw id, [group] the entry and [ring] the
    ring the entry must have been filled from. The lockstep checks
    require [group = Ring.group ring ~replicas:k file] with
    [k = min config.replicas (Ring.node_count ring)] on every call.
    @raise Invalid_argument as {!run}, and whatever [check] raises. *)

val client_hit_rate : result -> float
val server_hit_rate : result -> float

val reconcile : Agg_obs.Digest.t -> result -> (unit, string) Stdlib.result
(** Cross-checks an event-stream digest against the result counters:
    routed fetches, failovers, rebalances, timeouts, degraded fetches,
    crashes, and the served = routed + degraded identity. [Ok ()] when
    every pair agrees, otherwise [Error] naming each mismatch. *)

val pp_result : Format.formatter -> result -> unit

val pp_fleet : Format.formatter -> result -> unit
(** The load counters only (accesses, client hits, server requests and
    hits, store fetches, invalidations), as the one-server fleet reports
    them in [aggsim fleet]; latency, routing and fault counters are left
    out. *)
