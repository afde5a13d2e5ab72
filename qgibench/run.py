"""qgi benchmark: closed-loop, single-client, oracle-checked.

Usage (from the repository root):
    python3 qgibench/run.py --workload {qpe,sweep,census} --seed N \
        --seconds S --trace {0,1}

One client runs the workload's fixed op list again and again (one pass
after another) for about S seconds, one op at a time and single-threaded.
Every op's output is checked against answers an independent oracle
process computed before timing. The last stdout line is the result:
    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
With --trace 0 the metrics are the end-to-end ones (setup_s, pass_s,
pass_cpu_s, peak_rss_mib); with --trace 1 the per-layer ones from a
traced half of the run, plus the tracing overhead. The line before it
is the run record: machine, versions, steal share and per-op medians.
See README.md in this directory.
"""

from __future__ import annotations

import os

# Single-threaded load: no BLAS or OpenMP pool may use the second core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QGI_CACHE_DIR", None)

import argparse
import gc
import glob
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import workloads
from execute import SRC, Executor
from tracer import PER_LAYER, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPEATS = 7  # fresh interpreters timed for setup_s; the median is reported
CHILD_TIMEOUT_S = 120


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _sum_of_medians(samples: dict[str, list[float]]) -> float:
    """Sum over ops of the op's median across passes: one pass's time."""
    return sum(statistics.median(v) for v in samples.values())


def _cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies over all CPUs, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def _steal_share(before, after) -> float | None:
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _machine() -> dict:
    mem_kib = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_kib = int(line.split()[1])
    except OSError:
        pass
    import numpy

    lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "qgi", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "mem_total_kib": mem_kib,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_qgi_lines": lines,
    }


def _oracle(ops: list[dict]) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "oracle.py")],
        input=json.dumps(ops), capture_output=True, text=True, cwd=ROOT,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"oracle failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


class SetupTimer:
    """Wall seconds of fresh interpreters importing qgi and running every
    probe op once. The host changes speed within seconds, so the samples
    are taken between passes, spread over the run, not all at its start.
    One untimed run first fills the bytecode cache."""

    def __init__(self, seed: int, tmp: str):
        cache_dir = os.path.join(tmp, "setup")  # apart from the measured ops' caches
        os.makedirs(cache_dir)
        self.cmd = [sys.executable, os.path.join(HERE, "execute.py"), "--setup", str(seed),
                    cache_dir]
        self.samples: list[float] = []
        self._time_one()
        self.samples.clear()

    def _time_one(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run(self.cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, check=False)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        self.samples.append(elapsed)

    def take_due(self, share: float) -> None:
        """Samples until their count matches `share` of the run elapsed."""
        while len(self.samples) < SETUP_REPEATS * min(share, 1.0):
            self._time_one()


class Measurement:
    """Per-op wall and CPU samples over whole passes, with op checks."""

    def __init__(self, executor: Executor, ops: list[dict], refs: dict):
        self.executor, self.ops, self.refs = executor, ops, refs
        self.wall = {op["name"]: [] for op in ops}
        self.cpu = {op["name"]: [] for op in ops}
        self.attempted = 0
        self.failures: list[str] = []
        self.passes = 0
        self.layers: list[dict] = []  # per-layer metrics of each traced pass

    def one_pass(self, tracer=None) -> None:
        for op in self.ops:
            self.executor.prepare(op)
            gc.collect()
            if tracer is not None:
                tracer.op = (self.passes, op["name"])
            w0, c0 = time.perf_counter(), time.process_time()
            out = self.executor.run(op)
            w1, c1 = time.perf_counter(), time.process_time()
            self.wall[op["name"]].append(w1 - w0)
            self.cpu[op["name"]].append(c1 - c0)
            self.attempted += 1
            ref = self.refs[op["name"]]
            error = checks.check(op, out, ref)
            if error is not None:
                self.failures.append(f"{op['name']}: {error}")
            elif self.passes == 0 and checks.check(op, out, checks.corrupt(op, ref)) is None:
                # Corruption self-test: the check must reject a falsified
                # reference, or a passing check proves nothing.
                self.failures.append(f"{op['name']}: a falsified reference was not caught")
        self.passes += 1
        if tracer is not None:
            self.layers.append(layer_metrics(tracer.take()))

    def run_for(self, seconds: float, tracer=None, between=None) -> None:
        """Whole passes while the next one is expected to end in time
        (at least one). `between(share)` runs after each pass, outside the
        time budget, with the share of the budget used so far."""
        used = 0.0
        while True:
            t0 = time.perf_counter()
            self.one_pass(tracer)
            took = time.perf_counter() - t0
            used += took
            if between is not None:
                between(used / seconds)
            if used + took > seconds:
                return

    def op_stats(self) -> dict:
        return {
            name: {
                "wall_p50_s": statistics.median(self.wall[name]),
                "wall_p90_s": _quantile(self.wall[name], 90),
                "cpu_p50_s": statistics.median(self.cpu[name]),
                "samples": len(self.wall[name]),
            }
            for name in self.wall
        }


def _warm_up(executor: Executor, seed: int) -> None:
    """Untimed: every probe op once, so each code path has run before timing."""
    for op in workloads.probe_ops(workloads.probe_rng(seed)):
        executor.prepare(op)
        executor.run(op)


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qgi", "__init__.py")):
        print(f"error: no qgi source tree at {SRC}", file=sys.stderr)
        return 2
    ops = workloads.make_ops(args.workload, args.seed)
    tmp = tempfile.mkdtemp(prefix=".qgibench-", dir=ROOT)
    try:
        refs = _oracle(ops)
        setup = SetupTimer(args.seed, tmp) if not args.trace else None
        executor = Executor(tmp)
        _warm_up(executor, args.seed)
        stolen_before = _cpu_jiffies()
        plain = Measurement(executor, ops, refs)
        if args.trace:
            plain.run_for(args.seconds / 2)
            traced = Measurement(executor, ops, refs)
            with Tracer() as tracer:
                traced.run_for(args.seconds / 2, tracer)
            metrics = {
                name: {"value": statistics.median(layer[name] for layer in traced.layers),
                       "unit": unit}
                for name, unit in PER_LAYER
            }
            overhead = _sum_of_medians(traced.wall) - _sum_of_medians(plain.wall)
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            runs = [plain, traced]
        else:
            plain.run_for(args.seconds, between=setup.take_due)
            setup.take_due(1.0)
            metrics = {
                "setup_s": {"value": statistics.median(setup.samples), "unit": "s"},
                "pass_s": {"value": _sum_of_medians(plain.wall), "unit": "s"},
                "pass_cpu_s": {"value": _sum_of_medians(plain.cpu), "unit": "s"},
                "peak_rss_mib": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MiB",
                },
            }
            runs = [plain]
        steal = _steal_share(stolen_before, _cpu_jiffies())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failures = [f for run in runs for f in run.failures]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "setup_samples_s": setup.samples if setup else [],
        "passes": [run.passes for run in runs],  # untraced, then traced
        "pass_s": [_sum_of_medians(run.wall) for run in runs],
        "steal_share": steal,
        "wall_cpu_gap_s": _sum_of_medians(plain.wall) - _sum_of_medians(plain.cpu),
        "ops": plain.op_stats(),
        "failures": failures[:20],
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": not failures,
        "attempted": sum(run.attempted for run in runs),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
