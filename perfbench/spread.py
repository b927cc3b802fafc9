#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the benchmark once per seed on each named workload and prints, for every
metric, the median of the runs and the interquartile range as a share of the
median, next to the metric's bound from BENCHMARK.json. Run from the
repository root after building the benchmark:

    cargo build --release --manifest-path perfbench/Cargo.toml
    python3 perfbench/spread.py --bin <target-dir>/release/perfbench \
        --workloads serve,netlist --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True, help="path to the built perfbench binary")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", default="1-5", help="seed range, e.g. 1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--log", help="append each run's stderr and result to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = str(spec["run_seconds"])

    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [args.bin, "--workload", workload, "--seed", str(seed),
                   "--seconds", seconds, "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if args.log:
                with open(args.log, "a") as log:
                    log.write(f"### {workload} seed {seed}\n{proc.stderr}{json.dumps(result)}\n")
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, {result}\n{proc.stderr}")
            runs.append(result["metrics"])
        print(f"== {workload} ({len(runs)} runs)")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OVER 1/3 BOUND" if spread > bound / 3 else ""
            print(f"  {name:<26} median {med:>12.4f}  spread {spread:7.4f}  bound {bound}{flag}")
    print(f"worst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
