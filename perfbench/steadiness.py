#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs two sets of runs of the same build, each run with its own seed, and
prints per workload and end-to-end metric both sets' medians and quartiles,
the spread of each set (interquartile distance over the median), and whether
the two medians agree: |median2 - median1| / median1 within the metric's
bound, in either direction. Bounds, workloads, run length and the command
come from BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2]
                                    [--workloads fig4-ns,serve-mix]
                                    [--seconds N]

Run from the repository root. Raw results are written to
.perfbench/steadiness.json. Exits 1 when a set's spread exceeds a bound,
when the two medians differ by more than the bound, or when the share of
failed operations differs between runs; 2 when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(args)} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"incorrect result: {' '.join(args)}")
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    opts = ap.parse_args()
    if opts.runs < 2:
        raise SystemExit("--runs must be at least 2")

    with open(opts.benchmark) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = [w for w in opts.workloads.split(",") if w]
    seconds = opts.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    raw = {}
    for w in workloads:
        raw[w] = []
        for s in range(opts.sets):
            runs = []
            for i in range(opts.runs):
                seed = 1 + s * opts.runs + i
                r = run_once(bench["command"], w, seed, seconds)
                runs.append(r)
                vals = " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.4g}"
                                for m in metrics)
                print(f"[{w} set {s + 1} seed {seed}] failed {r['failed']}/{r['attempted']} {vals}",
                      flush=True)
            raw[w].append(runs)

    os.makedirs(".perfbench", exist_ok=True)
    with open(".perfbench/steadiness.json", "w") as f:
        json.dump(raw, f, indent=1)

    ok = True
    print()
    print(f"{'workload':14} {'metric':15} {'median1':>10} {'q1':>10} {'q3':>10} {'spread1':>8}"
          + (f" {'median2':>10} {'spread2':>8} {'diff':>7} {'bound':>6}  verdict" if opts.sets == 2
             else f" {'bound':>6}  verdict"))
    for w in workloads:
        sets = raw[w]
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
        if len(set().union(*shares)) != 1:
            ok = False
            print(f"{w}: failed share differs between runs: {shares}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            med1, q1, q3, sp1 = cols[0]
            verdict = all(c[3] <= bound for c in cols)
            line = f"{w:14} {name:15} {med1:10.4g} {q1:10.4g} {q3:10.4g} {sp1:8.3f}"
            if opts.sets == 2:
                med2, _, _, sp2 = cols[1]
                diff = abs(med2 - med1) / med1
                verdict = verdict and diff <= bound
                line += f" {med2:10.4g} {sp2:8.3f} {diff:7.3f} {bound:6.2f}"
            else:
                line += f" {bound:6.2f}"
            third = all(c[3] <= bound / 3 for c in cols)
            line += "  " + ("ok" if verdict else "FAIL") + ("" if third else " (spread > bound/3)")
            ok = ok and verdict
            print(line)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
