#!/bin/sh
# CI entry point: full build, full test suite, the lockstep differential
# gate against the lib/oracle reference models, and a quick smoke run of
# the paper-vs-measured checks from the reproduction harness.
#
# The check thresholds are calibrated for full-size runs (60k events), so
# the --quick pass only asserts the harness runs end to end; the full-size
# verdicts are covered by the `report checks` alcotest case in `dune runtest`.
#
# Usage:
#   ./ci.sh          # build + all tests + differential + quick checks
#   ./ci.sh --fast   # build + quick tests only (skips `Slow alcotest cases)
#
# Environment:
#   DIFFERENTIAL_OPS=200000   # opt-in: a larger differential fuzz budget
#                             # (generated ops per policy) on top of the
#                             # fixed-seed @differential gate
set -eu

cd "$(dirname "$0")"

# All randomness must flow through Agg_util.Prng with explicit seeds;
# direct Stdlib.Random use would silently break run-to-run reproducibility.
# (QCheck's own generators live in test/, which is exempt.)
if grep -rnE '(^|[^.A-Za-z_])(Stdlib\.)?Random\.(self_init|State|int|bits|bool|float|full_init|init)' \
    lib bin bench examples 2>/dev/null; then
  echo "ci.sh: direct Random use found outside Agg_util.Prng (see matches above)" >&2
  exit 1
fi

# The fault layer must derive every decision from Agg_util.Prng (the
# Random grep above already rejects Stdlib.Random): a fault plan that
# drew entropy anywhere else would stop being a pure function of its
# seed and coordinates, breaking jobs-independent replay.
if ! grep -rq 'Agg_util\.Prng' lib/faults; then
  echo "ci.sh: lib/faults no longer draws its randomness from Agg_util.Prng" >&2
  exit 1
fi

# The cluster layer's ring placement, per-node fault seeds and churn all
# hang off Agg_util.Prng.derive: any other entropy source would make runs
# depend on more than (config, trace), breaking run-to-run replay of the
# fleet and cluster outputs and jobs-independent sweeps.
if ! grep -rq 'Agg_util\.Prng' lib/cluster; then
  echo "ci.sh: lib/cluster no longer draws its randomness from Agg_util.Prng" >&2
  exit 1
fi

# The scenario fuzzer's perturbations must come from Agg_util.Prng so a
# fixed --seed replays the same violation and shrunk scenario.
if ! grep -rq 'Agg_util\.Prng' lib/scenario; then
  echo "ci.sh: lib/scenario no longer draws its randomness from Agg_util.Prng" >&2
  exit 1
fi

# The weighted baselines (Landlord and Bundle on the one GreedyDual-Size
# rent core) are deterministic by contract — their lockstep differential
# against the lib/oracle models (the inflation-form models, and the
# drain-form Landlord on exact weights), and the unit-weight
# LRU-equivalence checks assume replay is a pure function of the op
# sequence. Any entropy source, Agg_util.Prng included, would break that.
if grep -rnE '(^|[^.A-Za-z_])(Stdlib\.)?Random\.|Prng\.' \
    lib/baselines/landlord.ml lib/baselines/greedy_dual.ml lib/baselines/bundle.ml 2>/dev/null; then
  echo "ci.sh: the weighted baselines must stay deterministic (see matches above)" >&2
  exit 1
fi

# All clock access must flow through Agg_obs.Span (lib/obs): hot-path
# modules reading wall-clock time directly could make simulation results
# time-dependent and break run-to-run reproducibility.
if grep -rnE 'Unix\.gettimeofday|Unix\.time\b|Sys\.time\b|Monotonic_clock\.' \
    lib bin bench examples 2>/dev/null | grep -v '^lib/obs/'; then
  echo "ci.sh: direct clock use found outside Agg_obs.Span (see matches above)" >&2
  exit 1
fi

# Within lib/obs itself, the only wall-clock reader is Span: Series,
# Trace_ctx and the sinks run on the simulated clock (access indices and
# summed latencies) and must stay byte-deterministic run-to-run.
if grep -rlnE 'Unix\.gettimeofday|Unix\.time\b|Sys\.time\b|Monotonic_clock\.' \
    lib/obs 2>/dev/null | grep -v '^lib/obs/span\.ml$'; then
  echo "ci.sh: wall-clock use found in lib/obs outside span.ml (see matches above)" >&2
  exit 1
fi

# The telemetry layer's only entropy (trace head-sampling, the sampled
# sink) must come from Agg_util.Prng.derive so sampling decisions are
# pure functions of (seed, index) for any --jobs value.
if ! grep -rq 'Agg_util\.Prng' lib/obs; then
  echo "ci.sh: lib/obs no longer draws its randomness from Agg_util.Prng" >&2
  exit 1
fi

# Arena discipline: the per-access recency paths in lib/cache and
# lib/successor, and the rent core in lib/baselines, are flat-array
# structures (Agg_util.Dlist_arena / Agg_util.Int_table, the rent core's
# heap arrays); a Hashtbl creeping back in would reintroduce per-access
# hashing and allocation. The predictor modules in lib/baselines keep
# theirs and are not scanned. Sanctioned exceptions, none of them on the
# recency hot path:
#   lib/cache/belady.ml                     offline oracle policy
#   lib/successor/successor_list.ml         Frequency-policy count tables
#   lib/successor/tracker.ml                Frequency-policy fallback lists
#   lib/successor/{graph,grouping,oracle}.* offline baselines and oracles
hot_hashtbl=$(grep -rl 'Hashtbl' lib/cache lib/successor \
  lib/baselines/greedy_dual.ml lib/baselines/landlord.ml lib/baselines/bundle.ml 2>/dev/null \
  | grep -vE 'lib/cache/belady\.ml$' \
  | grep -vE 'lib/successor/(tracker|successor_list|graph|grouping|oracle)\.(ml|mli)$' \
  || true)
if [ -n "$hot_hashtbl" ]; then
  echo "ci.sh: Hashtbl found on the arena hot path:" >&2
  echo "$hot_hashtbl" >&2
  exit 1
fi

# Allocation-free replay: the hot drivers build retrieval groups with
# Group_builder.fill into buffers they own and record latencies in
# Agg_util.Latencies (selection, not a sort). The list wrapper
# Group_builder.build or an Array.sort compare over boxed floats would
# bring the per-access allocation back (DESIGN.md §10); the allocation
# ceilings in test/test_system.ml measure it.
if grep -nE 'Group_builder\.build|Array\.sort compare' lib/system/path.ml lib/cluster/cluster.ml; then
  echo "ci.sh: Path/Cluster must use Group_builder.fill and Agg_util.Latencies (see matches above)" >&2
  exit 1
fi

# The cluster's miss path reads replication groups from its per-file
# placement table (filled by Ring.fill_group) and scans a node array; the
# list-building Ring.group, List.nth and List.find_opt with a closure
# would bring the per-miss allocation back. Fault decisions and file
# positions are single draws (Prng.seeded_bits62 / derived_bits62): a
# throwaway generator per query boxes its whole state. Only the ring's
# construction builds generators.
if grep -nE 'Ring\.group|List\.nth|List\.find_opt' lib/cluster/cluster.ml \
  || grep -nE 'Prng\.create|Prng\.bits64 \(Prng\.derive' lib/faults/plan.ml \
  || grep -nE 'Prng\.create|Prng\.bits64 \(Prng\.derive' lib/cluster/ring.ml \
    | grep -v 'let base = Prng.create ~seed () in'; then
  echo "ci.sh: the cluster miss path must use its placement table and single draws (see matches above)" >&2
  exit 1
fi

if [ "${1:-}" = "--fast" ]; then
  dune build @all
  dune build @runtest-fast
else
  dune build @all
  dune runtest
fi

# Differential gate: every policy, successor scheme and system configuration
# against its executable reference model; fixed seed, 10k ops per policy.
dune build @differential

# Observability gate: JSONL event-dump schema validation plus exact
# reconciliation of event counts against Metrics aggregates, and the
# sweep-profiler / Chrome-trace smoke run.
dune build @obs

# Fault-injection gate: smoke-run `aggsim faults` (single hostile run and
# the loss-rate resilience sweep) at quick size.
dune build @faults

# Cluster gate: smoke-run `aggsim cluster` (replicated ring under node
# kills and the node-loss sweep) and `aggsim fleet` (the one-node
# cluster) at quick size, and check `fleet --clients 0` is a usage error.
dune build @cluster

# Scenario gate: validate the declarative corpus, run it fast-sized with
# every invariant checked (the known-bad entries must fail), and smoke the
# fuzz/shrink path.
dune build @scenario

# Sparse-id gate: a path scenario over a three-line trace with file id
# 400000000 must run in bounded memory. Path once sized its tables by the
# largest id and died with an uncaught Out_of_memory under this limit.
sparse_dir=$(mktemp -d)
printf '#aggtrace v1\n0 o 0 400000000\n1 o 0 7\n2 o 0 400000000\n' > "$sparse_dir/sparse.trc"
printf '#scenario v1\nname sparse-id-path\nworkload trace file=%s\ntopology path client_capacity=300 server_capacity=1000\npolicy lru\npolicy g5\ninvariant conservation\n' \
  "$sparse_dir/sparse.trc" > "$sparse_dir/sparse.scn"
if ! sparse_out=$( (ulimit -v 3000000; ./_build/default/bin/aggsim.exe scenario run --file "$sparse_dir/sparse.scn") 2>&1 ) \
  || printf '%s' "$sparse_out" | grep -q 'uncaught exception'; then
  printf '%s\n' "$sparse_out" >&2
  echo "ci.sh: the sparse-id path scenario failed under ulimit -v 3000000" >&2
  rm -rf "$sparse_dir"
  exit 1
fi

# The same trace through a replicated cluster: the cluster replay once
# sized its caches and tables by the raw id and died the same way.
printf '#scenario v1\nname sparse-id-cluster\nworkload trace file=%s\ntopology cluster nodes=3 replicas=2 placement=group ring_seed=23 clients=2 client_capacity=150 node_capacity=300\npolicy lru\npolicy g5\ninvariant conservation\n' \
  "$sparse_dir/sparse.trc" > "$sparse_dir/sparse-cluster.scn"
if ! sparse_out=$( (ulimit -v 3000000; ./_build/default/bin/aggsim.exe scenario run --file "$sparse_dir/sparse-cluster.scn") 2>&1 ) \
  || printf '%s' "$sparse_out" | grep -q 'uncaught exception'; then
  printf '%s\n' "$sparse_out" >&2
  echo "ci.sh: the sparse-id cluster scenario failed under ulimit -v 3000000" >&2
  rm -rf "$sparse_dir"
  exit 1
fi
rm -rf "$sparse_dir"

# Telemetry gate: windowed-series exports reconciled against run
# counters, the Chrome span dump, and the deterministic sampled
# event-dump path.
dune build @telemetry

# Weighted gate: smoke-run `aggsim weighted` (size/cost-skewed profiles,
# rent-based baselines vs the aggregating cache) in table and sweep
# forms, and check `weighted --events=-5` is a usage error.
dune build @weighted

# Micro gate: Bechamel micro-benchmarks and the per-policy throughput
# pass at reduced quota; exercises every online policy facade.
dune build @micro

# Optional larger fuzz budget for nightly-style runs.
if [ -n "${DIFFERENTIAL_OPS:-}" ]; then
  dune exec bin/aggsim.exe -- differential --ops "$DIFFERENTIAL_OPS" --quick
fi

dune exec bench/main.exe -- checks --quick
