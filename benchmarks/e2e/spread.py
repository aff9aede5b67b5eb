#!/usr/bin/env python3
"""Run each workload of /BENCHMARK.json ten times, each with another seed,
and print, per workload x end-to-end metric, the median and the spread the
benchmark's contract is judged by: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median.

    python3 benchmarks/e2e/spread.py [--exe PATH] [--runs 10] [--first-seed 1]
                                     [--workload NAME ...] [--out FILE.json]

Run from the repository root. Without --exe the manifest's own command is
used (cargo run ...); --exe names an already built mrsch-e2e binary.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--exe")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()

    manifest = json.load(open("BENCHMARK.json"))
    command = [args.exe, "run"] if args.exe else manifest["command"]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    names = args.workload or [w["name"] for w in manifest["workloads"]]
    values = {}
    worst = 0.0
    for name in names:
        for i in range(args.runs):
            seed = args.first_seed + i
            t = time.time()
            out = subprocess.run(
                command
                + ["--workload", name, "--seed", str(seed)]
                + ["--seconds", str(manifest["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True,
            ).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {seed}: incorrect result {result}")
            for metric, reading in result["metrics"].items():
                values.setdefault((name, metric), []).append(reading["value"])
            print(f"  {name} seed {seed}: {time.time() - t:.1f} s", file=sys.stderr)
        for metric, bound in bounds.items():
            v = values[(name, metric)]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v)
            if metric != "setup_s":
                worst = max(worst, spread / bound)
            flag = "" if spread <= bound / 3 or metric == "setup_s" else "  > bound/3"
            print(f"{name:<18} {metric:<12} median {med:>14.6f}  spread {spread:7.4f}  bound {bound}{flag}")
    print(f"worst spread/bound = {worst:.3f} (target < 0.333)")
    if args.out:
        json.dump({f"{w}/{m}": v for (w, m), v in values.items()}, open(args.out, "w"), indent=1)


if __name__ == "__main__":
    main()
