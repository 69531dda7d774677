#!/usr/bin/env python3
"""Measures a baseline: N untraced runs and one traced run per workload.

    python3 perfbench/baseline.py --runs 10 --out perfbench/BASELINE.json

Run from the repository root. Each untraced run uses its own seed (1..N);
for every end-to-end metric the summary holds the values, their median and
quartiles (statistics.quantiles, n=4), and the spread: the interquartile
distance as a share of the median, next to the metric's bound. The traced
run (seed N+1) contributes the per-layer metrics and the span table. The
build's provenance, the host's CPU count and the git sha are recorded
beside them.
"""
import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    """The run's result document."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    path = os.path.join(".bench_build", "perfbench-runs", workload, "result.json")
    if p.returncode != 0 or not os.path.exists(path):
        sys.stderr.write(p.stdout[-3000:] + p.stderr[-3000:])
        sys.exit("baseline: %s seed %d failed (exit %d)" % (workload, seed, p.returncode))
    with open(path) as f:
        return json.load(f)


def summarize(values):
    if len(values) < 2:
        return {"median": values[0], "values": values}
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q[0], "q3": q[2],
            "spread": (q[2] - q[0]) / med if med else None, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--out", default=os.path.join("perfbench", "BASELINE.json"))
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
           "runs": args.runs, "seconds": seconds, "workloads": {}}
    for wl in workloads:
        e2e, report = {}, {}
        for seed in range(1, args.runs + 1):
            r = run(wl, seed, seconds, 0)
            for k, v in r["e2e"].items():
                e2e.setdefault(k, []).append(v)
            for k, v in r["report"].items():
                report.setdefault(k, []).append(v)
            print(wl, seed, {k: round(v, 4) for k, v in r["e2e"].items()}, flush=True)
        traced = run(wl, args.runs + 1, seconds, 1)
        w = {"end_to_end": {}, "report": {k: summarize(v) for k, v in report.items()},
             "traced": {"per_layer": traced["per_layer"], "layers": traced["layers"],
                        "unattributed_s": traced["unattributed_s"]}}
        for k, v in e2e.items():
            s = summarize(v)
            s["bound"] = bounds.get(k)
            w["end_to_end"][k] = s
            print("  %-10s %-18s median %-12.6g spread %.4f bound %s" %
                  (wl, k, s["median"], s.get("spread") or 0.0, s["bound"]), flush=True)
        out["workloads"][wl] = w

    prov = subprocess.run([os.path.join(".bench_build", "perfbench", "pbench"), "--provenance"],
                          capture_output=True, text=True).stdout
    out["provenance"] = json.loads(prov) if prov.strip() else {}
    out["provenance"]["nproc"] = os.cpu_count()
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    if sha.returncode == 0:
        out["provenance"]["git_head"] = sha.stdout.strip()
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
