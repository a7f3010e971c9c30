#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs each workload under several
seeds and prints, per end-to-end metric, the median and the quartile spread
(q3 - q1 over the median, as statistics.quantiles(values, n=4) gives the
quartiles) next to the metric's bound from BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 10] [--first-seed 1]

A spread under a third of its bound is the target; setup_s is reported but
its spread is not judged. Every run must also report correct with no
failures.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    steady = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
            if result is None or not result["correct"] or result["failed"] != 0:
                print(f"{workload} seed {seed}: FAILED run (exit {out.returncode})")
                steady = False
                continue
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
        print(f"{workload}:")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else 0.0
            judged = m["name"] != "setup_s"
            ok = not judged or spread < m["bound"] / 3
            steady &= ok
            print(f"  {m['name']:24s} median {med:14.4f} {m['unit']:6s} spread {spread:7.4f}"
                  f"  bound {m['bound']:.2f}{'' if ok else '  <-- above bound/3'}")
            print("    values: " + " ".join(f"{x:.6g}" for x in v))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
