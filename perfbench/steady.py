#!/usr/bin/env python3
"""Steadiness record: repeated benchmark runs and their spread.

    python3 perfbench/steady.py --seeds 1-10 [--workloads train_auth,enroll,serve]
        [--seconds S] [--trace 0|1] [--out perfbench/results/steadiness.json]

Run from the repository root. Runs `run.py` once per seed and workload,
then reports for each metric its median, first and third quartile
(Python's `statistics.quantiles(values, n=4)`; with one seed, the value
itself) and the spread: the inter-quartile distance as a share of the
median. For end-to-end metrics (`--trace 0`), a spread at or above the
metric's bound in BENCHMARK.json is flagged; the benchmark aims for every
spread below a third of its bound. Per-layer metrics (`--trace 1`) have
no bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of `values`."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    if med:
        return med, q1, q3, (q3 - q1) / med
    # A per-layer metric of a layer off the workload's path reads 0.
    return med, q1, q3, 0.0 if q3 == q1 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="train_auth,enroll,serve")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    if args.trace:
        bounds = {m["name"]: None for m in spec["per_layer"]}
    else:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seconds": seconds, "trace": args.trace, "seeds": seeds_of(args.seeds),
              "workloads": {}}
    worst = 0.0
    for w in args.workloads.split(","):
        runs = []
        for seed in record["seeds"]:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                sys.exit(f"{w} seed {seed}: run failed")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{w} seed {seed}: " + ", ".join(f"{k} {v:.4f}" for k, v in runs[-1].items()),
                  flush=True)
        table = {}
        for name in bounds:
            med, q1, q3, s = spread([r[name] for r in runs])
            table[name] = {"median": med, "q1": q1, "q3": q3, "spread": s,
                           "bound": bounds[name], "values": [r[name] for r in runs]}
            bound = bounds[name]
            flag = ""
            if s is None:
                flag = " (median 0)"
            elif bound is not None:
                flag = "" if s < bound / 3 else (" > bound/3" if s < bound else " > BOUND")
                if name != "setup_s":
                    worst = max(worst, s / bound)
            print(f"  {w:10s} {name:22s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {s if s is None else round(s, 4)} (bound {bound}){flag}")
        record["workloads"][w] = table
    print(f"worst spread / bound (setup_s aside): {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
