#!/usr/bin/env python3
"""Self-test of the repository benchmark, at reduced size.

    python3 perfbench/selftest.py

For every workload, in both modes, asserts that the result line carries
exactly the metrics BENCHMARK.json names, each with its unit, that every
end-to-end metric perfbench/layers.json describes is printed with its
unit, and that no check fails. A run against a deliberately corrupted
reference must count every replay as failed. A copy of the benchmark
without the sources it builds must exit non-zero without a result.
Exits non-zero on the first failed assertion.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
EVENTS = 20000


def load(path):
    with open(os.path.join(ROOT, path)) as f:
        return json.load(f)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--events", str(EVENTS),
           *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check(cond, message):
    if not cond:
        print("FAIL: " + message)
        sys.exit(1)


def printed(stdout, prefix):
    """{name: unit} of the `<prefix> name value unit` lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == prefix:
            float(parts[2])
            out[parts[1]] = parts[3]
    return out


def main():
    bench = load("BENCHMARK.json")
    layers = load(os.path.join("perfbench", "layers.json"))
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    described = {name: m["unit"] for name, m in layers["end_to_end"].items()}
    check(set(layers["per_layer"]) == set(wanted[1]),
          "layers.json and BENCHMARK.json name different per-layer metrics")
    check(all(described[n] == u for n, u in wanted[0].items()),
          "layers.json and BENCHMARK.json disagree on end-to-end units")
    check(set(layers["workloads"]) == {w["name"] for w in bench["workloads"]},
          "layers.json and BENCHMARK.json name different workloads")

    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            r = run(name, trace)
            check(r.returncode == 0, "%s trace %d exited %d:\n%s" % (name, trace, r.returncode, r.stderr))
            result = json.loads(r.stdout.splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted[trace], "%s trace %d metrics %s" % (name, trace, sorted(got)))
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  "%s trace %d: %s" % (name, trace, {k: result[k] for k in ("correct", "attempted", "failed")}))
            if trace == 0:
                check(printed(r.stdout, "metric") == described,
                      "%s does not print every end-to-end metric with its unit" % name)
            else:
                check(printed(r.stdout, "layer") == wanted[1], "%s does not print every per-layer metric" % name)
            print("ok %s trace %d" % (name, trace))

        r = run(name, 0, "--corrupt-check")
        result = json.loads(r.stdout.splitlines()[-1])
        failed_frac = float(printed_value(r.stdout, "failed_frac"))
        check(r.returncode == 0 and not result["correct"]
              and result["failed"] == result["attempted"] > 0 and failed_frac == 1.0,
              "%s: a corrupted reference was not counted in failed_frac" % name)
        print("ok %s corrupted reference counted as failed" % name)

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    r = run(bench["workloads"][0]["name"], 0, cwd=bare)
    check(r.returncode != 0 and '"metrics"' not in r.stdout,
          "a checkout without sources did not fail cleanly")
    shutil.rmtree(bare)
    print("ok a checkout without sources exits %d without a result" % r.returncode)
    print("selftest passed")


def printed_value(stdout, metric):
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric" and parts[1] == metric:
            return parts[2]
    return "nan"


if __name__ == "__main__":
    main()
