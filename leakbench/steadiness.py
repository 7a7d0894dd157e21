#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of every workload.

Run from the repository root:

    python3 leakbench/steadiness.py [--runs 10]

Runs every workload of BENCHMARK.json at its run_seconds and holds the
end-to-end metrics to their bounds from the same file. Run i of set A uses
seed 1 + i and run i of set B seed 1001 + i; the sets alternate which goes
first. For every workload x end-to-end metric it prints each set's median
and quartiles (statistics.quantiles, n=4), the quartile spread as a share
of the median, and the gap between the two medians (B against A, signed so
that + is worse). Both spreads and the size of the gap, in either
direction, must stay within the metric's bound; the spread of setup_s is
shown but not held to it. It also compares the share of failed operations
of the two sets. Exits 1 when any figure is out of bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys

SEED_BASE = {"A": 1, "B": 1001}


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(args)}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(opts.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for s in order:
                r = run_once(bench["command"], w, SEED_BASE[s] + i, seconds)
                results[w][s].append(r)
                values = {k: round(v["value"], 4)
                          for k, v in r["metrics"].items()}
                print(f"# run {i} set {s} {w}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      f"{values}", flush=True)

    ok = True
    print(f"\n{opts.runs} runs per set, {seconds} s each\n")
    print("| workload | metric | A median [Q1, Q3] | A spread | "
          "B median [Q1, Q3] | B spread | gap (+ worse) | bound | ok |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in results[w]["A"]]
            b = [r["metrics"][name]["value"] for r in results[w]["B"]]
            ma, qa1, qa3, sa = spread(a)
            mb, qb1, qb3, sb = spread(b)
            gap = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            fine = abs(gap) <= bound and (name == "setup_s" or
                                          (sa <= bound and sb <= bound))
            ok = ok and fine
            print(f"| {w} | {name} | {ma:.4g} [{qa1:.4g}, {qa3:.4g}] | "
                  f"{100 * sa:.1f}% | {mb:.4g} [{qb1:.4g}, {qb3:.4g}] | "
                  f"{100 * sb:.1f}% | {100 * gap:+.1f}% | {100 * bound:.0f}% "
                  f"| {'yes' if fine else 'NO'} |")
        shares = []
        for s in ("A", "B"):
            attempted = sum(r["attempted"] for r in results[w][s])
            failed = sum(r["failed"] for r in results[w][s])
            shares.append(failed / attempted)
            ok = ok and all(r["correct"] for r in results[w][s])
        ok = ok and shares[0] == shares[1]
        print(f"| {w} | failed share | {shares[0]:.4g} | | {shares[1]:.4g} "
              f"| | | | {'yes' if shares[0] == shares[1] else 'NO'} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
