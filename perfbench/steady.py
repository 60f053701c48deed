#!/usr/bin/env python3
"""Measures how steady the benchmark's figures are.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads serve_host --seconds 10

Runs every workload in two interleaved sets (A, B, A, B, ...), each run with
its own seed, through run.py. For each end-to-end metric it prints, per set,
the median, the quartiles, the min and max and the spread (quartile distance
over the median), then how far set B's median moved from set A's, and the
share of failed operations in each set. The largest spread of a metric is
what its bound in BENCHMARK.json has to cover: the bound should be at least
three times it. --trace 1 reports the per-layer metrics the same way.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output checks failed")
    return result, wall


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values),
            "spread": (q3 - q1) / q2 if q2 else float("nan")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset (default: all)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=None, help="also write raw runs as JSON")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    raw = {}
    for workload in workloads:
        sets = {"A": [], "B": []}
        seed = args.first_seed
        for i in range(args.runs):
            for name in ("A", "B"):
                result, wall = run_once(workload, seed, seconds, args.trace)
                sets[name].append({"seed": seed, "wall_s": wall, **result})
                print(f"# {workload} set {name} run {i + 1} seed {seed}: "
                      f"{wall:.1f} s", file=sys.stderr)
                seed += 1
        raw[workload] = sets

        print(f"\n== {workload}: {args.runs} runs per set, {seconds} s each")
        for name in ("A", "B"):
            att = sum(r["attempted"] for r in sets[name])
            fail = sum(r["failed"] for r in sets[name])
            walls = [r["wall_s"] for r in sets[name]]
            print(f"set {name}: failed {fail}/{att} operations, "
                  f"run wall {min(walls):.1f}-{max(walls):.1f} s")
        print(f"{'metric':30} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>7}")
        for metric in sets["A"][0]["metrics"]:
            per_set = {}
            for name in ("A", "B"):
                vals = [r["metrics"][metric]["value"] for r in sets[name]]
                s = per_set[name] = summary(vals)
                print(f"{metric:30} {name:3} {s['median']:12.4f} "
                      f"{s['q1']:12.4f} {s['q3']:12.4f} {s['min']:12.4f} "
                      f"{s['max']:12.4f} {s['spread']:7.3f}")
            a, b = per_set["A"]["median"], per_set["B"]["median"]
            shift = (b - a) / a if a else float("nan")
            worst = max(per_set["A"]["spread"], per_set["B"]["spread"])
            bound = bounds.get(metric)
            note = f"bound {bound}" if bound is not None else "no bound"
            print(f"{'':30} B vs A median {shift:+.3f}, largest spread "
                  f"{worst:.3f}, {note}")

    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))


if __name__ == "__main__":
    main()
