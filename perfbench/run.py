#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result.

    python3 perfbench/run.py --workload svc_deep --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds phd and the pbench driver from source
into .bench_build/perfbench (a no-op after the first run), runs the workload, prints a
readable report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Exits 1 when an exactness check failed, and 2 without a
result line when the benchmark cannot be built or run here.
"""
import argparse
import json
import os
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUNS_DIR = os.path.join(".bench_build", "perfbench-runs")
TIME_LIMIT_S = 170.0  # for the runs, after the build


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    log = os.path.join(".bench_build", "perfbench-build.log")
    os.makedirs(".bench_build", exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(log) as f:
                    tail = f.read()[-4000:]
                die("build failed (%s):\n%s" % (" ".join(cmd), tail))


def unit(name):
    """Unit of a report line, from its name."""
    if "_us_per_" in name:
        return "us"
    for suffix, u in (("_per_s", "1/s"), ("_us", "us"), ("_ms", "ms"), ("_mb", "MB"),
                      ("_frac", "ratio"), ("_s", "s")):
        if name.endswith(suffix):
            return u
    return "count"


def run_pbench(args, work, out, deadline):
    """Runs pbench once; returns its exit code and result document."""
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(BUILD_DIR, "pbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--phd", os.path.join(BUILD_DIR, "phd"),
           "--work-dir", work, "--out", out]
    try:
        rc = subprocess.call(cmd, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        die("pbench exceeded the time limit")
    if not os.path.exists(out):
        die("pbench exited %d without a result" % rc)
    with open(out) as f:
        return rc, json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("BENCHMARK.json", "perfbench/CMakeLists.txt", "src/CMakeLists.txt",
                 "tools/phd.cpp"):
        if not os.path.exists(need):
            die("run from the repository root (missing %s)" % need)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %s" % args.workload)

    build()
    work = os.path.join(RUNS_DIR, args.workload)
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "result.json")
    rc, res = run_pbench(args, work, out, time.monotonic() + TIME_LIMIT_S)

    print("workload %s seed %d seconds %g trace %d" %
          (args.workload, args.seed, args.seconds, args.trace))
    for name, v in sorted(list(res["e2e"].items()) + list(res["report"].items())):
        print("  %-28s %-12.6g %s" % (name, v, unit(name)))
    for why, count in sorted(res["failures"].items()):
        print("  FAILED %-21s %d" % (why, count))
    if args.trace:
        for name, l in sorted(res["layers"].items()):
            print("  span %-23s count %-9d total_s %-10.4g self_s %.4g" %
                  (name, l["count"], l["total_s"], l["self_s"]))
        print("  span %-23s total_s %.4g" % ("unattributed", res["unattributed_s"]))
        print("  spans written to %s" % res["trace_file"])

    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = res["per_layer"] if args.trace else res["e2e"]
    metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in table}
    print(json.dumps({"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))
    sys.exit(0 if res["correct"] and rc == 0 else 1)


if __name__ == "__main__":
    main()
