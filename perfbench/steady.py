#!/usr/bin/env python3
"""Steadiness check: runs workloads N times on the same build, one seed each.

    python3 perfbench/steady.py --runs 10 [--workload retrieve_cold ...]
                                [--seed-base 1] [--seconds S] [--trace 0]

For every metric prints the median, the quartiles and the spread, which is
the distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. Every run's result line is kept in
.bench_build/steady/<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    provenance = [json.loads(l)["provenance"] for l in lines
                  if l.startswith('{"provenance"')]
    return json.loads(lines[-1]), provenance[0] if provenance else None


def summarize(workload, results, bounds):
    names = list(results[0]["metrics"])
    print("%s: %d runs, attempted %s, failed %s" % (
        workload, len(results), [r["attempted"] for r in results],
        [r["failed"] for r in results]))
    print("  %-32s %12s %12s %12s %8s %7s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print("  %-32s %12.6g %12.6g %12.6g %7.2f%% %7s%s" % (
            name, med, q1, q3, 100 * spread,
            "" if bound is None else "%.0f%%" % (100 * bound), flag))


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = os.path.join(ROOT, ".bench_build", "steady")
    os.makedirs(out_dir, exist_ok=True)
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        with open(os.path.join(out_dir, workload + ".jsonl"), "a") as log:
            for i in range(args.runs):
                seed = args.seed_base + i
                r, provenance = run_once(workload, seed, args.seconds,
                                         args.trace)
                log.write(json.dumps({"seed": seed, "result": r,
                                      "provenance": provenance}) + "\n")
                log.flush()
                results.append(r)
        summarize(workload, results, bounds)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
