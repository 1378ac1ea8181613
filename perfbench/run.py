#!/usr/bin/env python3
"""EchoImage benchmark runner.

    python3 perfbench/run.py --workload <train_auth|enroll|serve|all> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. Builds the `perfbench` package (its own
cargo workspace, depending on the repository's crates by path) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload in its
own process and prints, as the last line of standard output, one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json. The
measured time is split over five fresh processes, each with its own
set-up: a latency metric is the median of the processes' medians, a ratio
uses the summed counts, and set-up time and peak memory are the median
over the five. `--trace 1` is a separate traced run, in one
process, that times each layer's public calls from the benchmark's side
and reports the per-layer metrics.

`--workload all` is the output check across processes: for each workload
it runs the untraced run, the traced run and an untraced run with
ECHOIMAGE_THREADS=1, and fails, naming the workload and metric, unless the
decision digests and the accuracy ratios agree exactly.

Exits non-zero, with the reason on standard error, when the build fails,
a workload fails or an output is wrong.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_auth", "enroll", "serve")
# Ratios that depend only on the program's decisions, never on timing:
# they must read the same in every run of every seed and thread count.
EXACT_RATIOS = ("genuine_accept_rate", "impostor_reject_rate", "identify_correct_rate")
# Wall-clock budget for one workload invocation (all its processes).
BUDGET_S = 170.0
# Processes one untraced run is split over. The host is a shared VM whose
# speed drifts over seconds to minutes; the median over the processes'
# medians keeps one process caught in a slow spell from moving a run.
PROCESSES = 5


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Build output goes to stderr so the result stays the last stdout line.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed (cargo exit {done.returncode})")
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return os.path.abspath(binary)


def invoke(binary, workload, seed, seconds, trace, deadline, env=None):
    """Runs one benchmark process; returns its parsed RESULT object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    left = deadline - time.monotonic()
    if left <= 0:
        fail(f"{workload}: out of time before starting {' '.join(cmd[1:])}")
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: timed out after {left:.0f} s")
    result = None
    for line in done.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if done.returncode != 0 or result is None:
        fail(f"{workload}: benchmark process exited {done.returncode} without a result")
    return result


def pool(results, units, reasons):
    """End-to-end metrics over several processes' results: the median of
    the processes' latency medians, ratios over the summed counts, and the
    median of the processes' set-up times and peak memory."""
    metrics = {}
    for name in results[0]["samples"]:
        medians = [statistics.median(r["samples"][name]) for r in results
                   if r["samples"][name]]
        metrics[name] = statistics.median(medians) if medians else 0.0
    for name in results[0]["counts"]:
        per = [tuple(r["counts"][name]) for r in results]
        if name in EXACT_RATIOS and len(set(per)) > 1:
            reasons.append(f"{name}: processes disagree {per}")
        num, den = sum(p[0] for p in per), sum(p[1] for p in per)
        metrics[name] = num / den if den else 0.0
    for name in ("setup_s", "peak_rss_mb"):
        metrics[name] = statistics.median(r["metrics"][name]["value"] for r in results)
    for name, v in metrics.items():
        if name in results[0]["samples"]:
            n = "median of {} process medians over {} samples".format(
                len(results), sum(len(r["samples"][name]) for r in results))
        elif name in results[0]["counts"]:
            n = "{} of {}".format(*[sum(r["counts"][name][i] for r in results) for i in (0, 1)])
        else:
            n = f"median of {len(results)} processes"
        print(f"{name}: {v:.6g} {units.get(name, '')} ({n})")
    digests = {r["digest"] for r in results}
    if len(digests) > 1:
        reasons.append(f"decision digests differ between processes: {sorted(digests)}")
    return {n: {"value": v, "unit": units[n]} for n, v in metrics.items() if n in units}


def run_workload(binary, workload, seed, seconds, trace, deadline, env=None):
    """One workload at one trace setting: (result line, first process's
    RESULT, reasons the output is wrong)."""
    spec = benchmark_spec()
    table = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in table}
    if trace:
        results = [invoke(binary, workload, seed, seconds, 1, deadline, env=env)]
        metrics = results[0]["metrics"]
        reasons = list(results[0]["checks"])
    else:
        # The untraced run is split over PROCESSES fresh processes, each
        # with its own set-up and an equal share of the measured time.
        results = [
            invoke(binary, workload, seed + 1_000_003 * k, seconds / PROCESSES, 0, deadline,
                   env=env)
            for k in range(PROCESSES)]
        reasons = [c for r in results for c in r["checks"]]
        metrics = pool(results, units, reasons)
    for m in table:
        got = metrics.get(m["name"])
        if got is None:
            reasons.append(f"{m['name']}: not reported")
        elif got["unit"] != m["unit"]:
            reasons.append(f"{m['name']}: unit {got['unit']}, BENCHMARK.json says {m['unit']}")
        elif not trace and not got["value"] > 0:
            reasons.append(f"{m['name']}: value {got['value']} is not positive")
    extra = set(metrics) - set(units)
    if extra:
        reasons.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    out = {
        "correct": not reasons,
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "metrics": {m["name"]: metrics[m["name"]] for m in table if m["name"] in metrics},
    }
    return out, results[0], reasons


def check_all(binary, seed, seconds):
    """The cross-process output check over every workload."""
    reasons = []
    for w in WORKLOADS:
        deadline = time.monotonic() + BUDGET_S
        _, untraced, r0 = run_workload(binary, w, seed, seconds, 0, deadline)
        _, traced, r1 = run_workload(binary, w, seed, seconds, 1, deadline)
        env = dict(os.environ, ECHOIMAGE_THREADS="1")
        _, serial, r2 = run_workload(binary, w, seed, seconds, 0, deadline, env=env)
        reasons += [f"{w}: {r}" for r in r0 + r1 + r2]
        if not untraced["digest"] == traced["digest"] == serial["digest"]:
            reasons.append(f"{w}: decision digest untraced {untraced['digest']}, "
                           f"traced {traced['digest']}, threads=1 {serial['digest']}")
        for name in EXACT_RATIOS:
            a = untraced["metrics"][name]["value"]
            b = serial["metrics"][name]["value"]
            if a != b:
                reasons.append(f"{w}: {name} {a} at default threads, {b} at threads=1")
        print(f"{w}: digest {untraced['digest']} (threads {untraced['threads']}), "
              f"traced {traced['digest']}, threads=1 {serial['digest']}")
    return reasons


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the repository root")
    binary = build()
    if args.workload == "all":
        reasons = check_all(binary, args.seed, args.seconds)
        for r in reasons:
            print(f"check failed: {r}", file=sys.stderr)
        print(json.dumps({"correct": not reasons, "reasons": reasons}))
        sys.exit(1 if reasons else 0)
    deadline = time.monotonic() + BUDGET_S
    out, _, reasons = run_workload(binary, args.workload, args.seed, args.seconds,
                                   args.trace, deadline)
    for r in reasons:
        print(f"check failed: {r}", file=sys.stderr)
    print(json.dumps(out))
    sys.exit(0 if out["correct"] else 1)


if __name__ == "__main__":
    main()
