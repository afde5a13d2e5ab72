"""Run the benchmark over several seeds and keep every run's output.

Usage (from the repository root):
    python3 qgibench/series.py --out DIR [--workloads W ...] [--seeds 1-10]

The workloads default to those BENCHMARK.json gates. Untraced runs of
BENCHMARK.json's run_seconds each, one after another,
never in parallel. The full stdout of each goes to
DIR/<workload>-seed<N>.json. Then prints, per workload and end-to-end
metric, the median, the quartiles and the spread (the distance between
the quartiles as a share of the median) next to the metric's bound in
BENCHMARK.json. Two such directories are the input of compare.py.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

from compare import load_benchmark, load_runs, spread_table

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    benchmark = load_benchmark()
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = parser.parse_args(argv)
    seconds = str(benchmark["run_seconds"])
    os.makedirs(args.out, exist_ok=True)
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
            path = os.path.join(args.out, f"{workload}-seed{seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(proc.stdout)
            if proc.returncode != 0:
                print(f"{path}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}",
                      file=sys.stderr)
                return 1
            print(f"{path}: {proc.stdout.splitlines()[-1]}", flush=True)
    print(spread_table(load_runs(args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
