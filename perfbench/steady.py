#!/usr/bin/env python3
"""Runs each workload k times and prints how steady every end-to-end metric is.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

Run i uses seed i (1, 2, ..., runs) and the run length from
BENCHMARK.json. For every workload and metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median and the metric's bound, marked `steady` when the
spread is below a third of the bound, `within` when at most the bound
and `WIDE` otherwise. It also checks that every run was correct and
that the failed share was the same in every run. All values go to perfbench/out/steady-<workloads>.json. Exits 1 if
a run failed or a spread is WIDE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    workloads = args.workload or names
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = {}
    bad = False
    for w in workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            r = run_once(w, seed, bench["run_seconds"])
            runs.append(r)
            print(f"{w} seed {seed}: attempted {r['attempted']} "
                  f"failed {r['failed']} correct {r['correct']}", file=sys.stderr)
        results[w] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        if not all(r["correct"] for r in runs) or len(shares) != 1:
            print(f"{w}: incorrect run or unequal failed shares {sorted(shares)}")
            bad = True
        print(f"\n{w} ({args.runs} runs, {bench['run_seconds']} s each)")
        print(f"{'metric':<16} {'median':>14} {'Q1':>14} {'Q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread < spec["bound"] / 3:
                mark = "steady"
            elif spread <= spec["bound"]:
                mark = "within"
            else:
                mark = "WIDE"
                bad = True
            print(f"{name:<16} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                  f"{spread:>8.4f} {spec['bound']:>6.2f} {mark} {spec['unit']}")
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"steady-{'-'.join(workloads)}.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"\nall values: {os.path.relpath(path, ROOT)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
