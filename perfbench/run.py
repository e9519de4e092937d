#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/perfbench.exe from source
(dune, release profile, build directory .bench_build) and runs one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 replays the workload end to end, untraced, and reports the
end-to-end metrics; --trace 1 runs the per-layer ladder with spans and
reports the per-layer metrics. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
Workloads, metrics and the layers each one exercises are described in
perfbench/layers.json; BENCHMARK.json at the repository root holds the
bounds. Trace files, span logs and result records are written to
.bench_build/perfbench-out.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench-out")
PROFILE = "release"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_rev():
    """The git revision when there is one, and always a digest of the
    sources the benchmark builds from, so runs of different code are
    never compared."""
    digest = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        start = os.path.join(ROOT, top)
        paths = [start] if os.path.isfile(start) else [
            os.path.join(d, f) for d, _, fs in os.walk(start) for f in fs
        ]
        for path in sorted(paths):
            if path.endswith((".ml", ".mli", "dune", "dune-project", ".py", ".json")):
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    rev = "src-" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            rev = git.stdout.strip() + "+" + rev
    return rev


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: run from the root of a source checkout" % needed)
    cmd = ["dune", "build", "--root", ROOT, "--profile", PROFILE,
           "--build-dir", BUILD_DIR, "--cache", "disabled",
           "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0:
        fail("build failed (exit %d)" % r.returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--events", type=int, default=0,
                   help="override the workload's event count (self-test)")
    p.add_argument("--corrupt-check", action="store_true",
                   help="corrupt the reference counters (self-test)")
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out-dir", OUT_DIR, "--rev", source_rev(),
           "--build-profile", PROFILE]
    if a.events:
        cmd += ["--events", str(a.events)]
    if a.corrupt_check:
        cmd.append("--corrupt-check")
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail("perfbench.exe exited with %d" % r.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(r.stdout)
        fail("the last output line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys %s" % sorted(result))
    for line in lines[:-1]:
        print(line)
    print(lines[-1])


if __name__ == "__main__":
    main()
