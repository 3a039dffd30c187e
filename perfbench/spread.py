#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py <workload> <seconds> <trace> <seed>...

Runs from the repository root (the benchmark's own command, as in
BENCHMARK.json). For every metric it prints the median over the seeds
and the interquartile distance as a share of the median, computed with
`statistics.quantiles(values, n=4)`; each untraced run's median slowdown
(the reference kernel's, which the times are scaled by) and unscaled
median replication wall are printed alongside, so host-speed drift shows
next to the figures.
"""

import json
import statistics
import subprocess
import sys


def main() -> int:
    if len(sys.argv) < 5:
        print(__doc__, file=sys.stderr)
        return 2
    workload, seconds, trace = sys.argv[1:4]
    seeds = sys.argv[4:]
    command = json.load(open("BENCHMARK.json"))["command"]
    values = {}
    failed = 0
    for seed in seeds:
        run = subprocess.run(
            command
            + ["--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", trace],
            capture_output=True,
            text=True,
        )
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or len(lines) < 2:
            failed += 1
            print(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}", flush=True)
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        if not result["correct"]:
            failed += 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = {n: f"{m['value']:.6g}" for n, m in result["metrics"].items() if trace == "0"}
        host = ""
        if trace == "0":
            host = (
                f"slowdown={detail['slowdown']['median']:.4f} "
                f"wall_s_median={detail['wall_s_median']:.6g} "
            )
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} {host}{shown}",
            flush=True,
        )
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q = statistics.quantiles(vals, n=4)
            print(
                f"{workload:18} {name:32} median {med:<12.6g} spread {(q[2] - q[0]) / med:.4f} "
                f"min {min(vals):.6g} max {max(vals):.6g}"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
