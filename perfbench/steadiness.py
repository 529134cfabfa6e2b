#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Runs every named workload --runs times, alternating workloads so that host
drift spreads over all of them, with seeds first-seed, first-seed+1, ...,
and prints for each end-to-end metric the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median and the
bound from BENCHMARK.json. Run it from the repository root:

    python3 perfbench/steadiness.py --runs 10 --seconds 20 \
        round-dock5 localize-mix serve-mixed receiver-stream
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in args.workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in args.workloads:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect result {res}")
            line = []
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                line.append(f"{name}={m['value']:.5g}")
            print(f"run {i + 1} {w} seed {seed}: " + " ".join(line), flush=True)

    print()
    print(f"{'workload':16} {'metric':16} {'median':>10} {'Q1':>10} {'Q3':>10} {'spread':>7} {'bound':>6}")
    for w, metrics in values.items():
        for name, vs in metrics.items():
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2
            print(f"{w:16} {name:16} {q2:10.5g} {q1:10.5g} {q3:10.5g} {spread:7.3f} {bounds.get(name, float('nan')):6.2f}")


if __name__ == "__main__":
    main()
