"""Compare two result sets of the benchmark (choosing-metrics section 8).

Usage (from the repository root):
    python3 qgibench/compare.py BASE_DIR NEW_DIR

A result set is a directory of run outputs as series.py writes them,
untraced runs only. The table has one row per workload and end-to-end
metric: each side's median and quartiles, the number of paired runs the
new side won, and a verdict:

- improved: the new side wins at least nine tenths of the pairs (runs
  with equal seeds; ties count for neither) and the medians differ by
  more than the base's quartile distance;
- unresolved: the base's quartile distance is wider than the metric's
  bound, and not every new run beats every base run;
- worse: the new median is worse than the base median by more than the
  bound;
- no worse: otherwise.

Exits 1 if any row is "worse", else 0.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_spec() -> dict:
    """The end-to-end metrics of BENCHMARK.json by name."""
    return {m["name"]: m for m in load_benchmark()["end_to_end"]}


def load_runs(directory: str) -> dict:
    """{workload: {metric: {seed: value}}} from untraced run outputs."""
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        record = json.loads(lines[-2])["record"]
        if record["trace"]:
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise SystemExit(f"{path}: the run failed its checks")
        for name, metric in result["metrics"].items():
            runs.setdefault(record["workload"], {}).setdefault(name, {})[record["seed"]] = \
                metric["value"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def spread_table(runs: dict) -> str:
    spec = load_spec()
    rows = [f"{'workload':<8} {'metric':<13} {'n':>3} {'median':>12} {'q1':>12} "
            f"{'q3':>12} {'spread':>7} {'bound':>6}"]
    for workload, metrics in runs.items():
        for name, by_seed in metrics.items():
            values = list(by_seed.values())
            q1, q2, q3 = quartiles(values)
            rows.append(f"{workload:<8} {name:<13} {len(values):>3} {q2:>12.6g} {q1:>12.6g} "
                        f"{q3:>12.6g} {spread(values):>7.2%} {spec[name]['bound']:>6.0%}")
    return "\n".join(rows)


def verdict(base: dict, new: dict, better: str, bound: float) -> tuple[str, int, int]:
    """(verdict, pairs won by new, pairs) for one workload and metric."""
    sign = 1 if better == "higher" else -1
    pairs = [(base[s], new[s]) for s in sorted(base) if s in new]
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    b1, bmed, b3 = quartiles(list(base.values()))
    nmed = statistics.median(new.values())
    gain = sign * (nmed - bmed)
    if pairs and wins >= 0.9 * len(pairs) and gain > b3 - b1:
        return "improved", wins, len(pairs)
    all_better = all(sign * (n - b) > 0 for n in new.values() for b in base.values())
    if (b3 - b1) / bmed > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if -gain > bound * bmed:
        return "worse", wins, len(pairs)
    return "no worse", wins, len(pairs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    base, new = load_runs(argv[0]), load_runs(argv[1])
    worse = False
    print(f"{'workload':<8} {'metric':<13} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'won':>6}  verdict")
    for workload in base:
        for name, m in spec.items():
            if name not in base[workload] or name not in new.get(workload, {}):
                continue
            b, n = base[workload][name], new[workload][name]
            text, wins, pairs = verdict(b, n, m["better"], m["bound"])
            worse |= text == "worse"
            bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
            print(f"{workload:<8} {name:<13} "
                  f"{bq[1]:>12.6g} [{bq[0]:>9.4g}, {bq[2]:>9.4g}] "
                  f"{nq[1]:>12.6g} [{nq[0]:>9.4g}, {nq[2]:>9.4g}] "
                  f"{wins:>3}/{pairs:<2}  {text}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
