"""Tests of the benchmark itself: op lists, oracle, checks, tracer.

Run from the repository root: python3 -m pytest qgibench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest

import checks
import compare
import oracle
import tracer
import workloads
from execute import Executor

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _ops_json(workload: str, seed: int, hash_seed: str) -> bytes:
    code = (f"import json, workloads; "
            f"print(json.dumps(workloads.make_ops({workload!r}, {seed})))")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=env,
                          capture_output=True, check=True).stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_equal_seeds_give_byte_equal_op_lists(workload):
    assert _ops_json(workload, 7, "1") == _ops_json(workload, 7, "2")
    assert _ops_json(workload, 7, "1") != _ops_json(workload, 8, "1")


def _schedule(ops: list[dict]) -> list:
    """(name, [(n, m) of each graph]) per op: what the seed must not change."""
    return [(op["name"], [(g[0], len(g[1])) for g in op.get("graphs", [])]) for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_schedule_does_not_depend_on_the_seed(workload):
    schedules = {json.dumps(_schedule(workloads.make_ops(workload, s)))
                 for s in (1, 2, 3, 12345)}
    assert len(schedules) == 1


def _brute_histogram(n, edges):
    counts = [0] * (len(edges) + 1)
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            s = set(subset)
            counts[sum(1 for i, j in edges if i in s and j in s)] += 1
    return counts


def test_oracle_sweep_and_spectrum_match_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 8)
        _, edges = workloads.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        assert oracle.histogram(n, edges) == _brute_histogram(n, edges)
        a = np.zeros((n, n))
        for i, j in edges:
            a[i, j] = a[j, i] = 1
        assert list(oracle.char_poly(n, edges)) == np.rint(np.poly(a)).astype(int).tolist()


def test_oracle_census_is_pinned_to_oeis_a000088():
    lines = oracle.census(7)
    assert [line[1] for line in lines] == [1, 2, 4, 11, 34, 156, 1044]
    assert lines[6] == [7, 1044, 1021, 988]


def test_oracle_process_never_imports_qgi():
    ops = workloads.make_ops("census", 1)
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "oracle.py")],
                          input=json.dumps(ops), capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == {op["name"] for op in ops}


def test_checks_catch_falsified_references(tmp_path):
    """Corruption self-test: every op kind passes against the oracle and
    fails against a falsified reference."""
    ops = workloads.probe_ops(workloads.probe_rng(3))
    ops += [op for w in ("qpe", "sweep", "census") for op in workloads.make_ops(w, 3)
            if op["name"] in ("qpe.petersen_unfused", "qpe.encode_n16", "sweep.compare_n10",
                              "sweep.mis_n16", "sweep.prop1_n16", "census.compare_g1_g2")]
    refs = oracle.references(ops)
    executor = Executor(str(tmp_path))
    kinds = set()
    for op in ops:
        executor.prepare(op)
        out = executor.run(op)
        ref = refs[op["name"]]
        assert checks.check(op, out, ref) is None, op["name"]
        assert checks.check(op, out, checks.corrupt(op, ref)) is not None, op["name"]
        kinds.add((op["cmd"], op.get("mode")))
    assert {cmd for cmd, _ in kinds} == {"invariant", "compare", "encode", "survey",
                                        "mis", "prop1"}


def test_checks_count_errors_and_exit_codes_as_failures():
    op = workloads.probe_ops(workloads.probe_rng(1))[0]
    ref = oracle.reference(op, [])
    assert checks.check(op, {"error": "ValueError: boom"}, ref) == "ValueError: boom"
    assert checks.check(op, {"rc": 2, "stdout": "", "stderr": "error: x"}, ref)


def test_shot_check_rejects_any_shot_on_an_impossible_outcome():
    op = {"cmd": "invariant", "mode": "shots", "shots": 1000}
    ref = {"width": 5, "n": 3, "t": 2, "oracle_calls": 3, "counts": [1, 0, 1]}

    def out(counts):
        rows = "".join(f"{k} {c / 10:.1f} {c}\n" for k, c in enumerate(counts))
        return {"rc": 0, "stdout": "#(edges)  %Probability  #(shots)\n" + rows,
                "stderr": "qpe: width=5 graph_qubits=3 est_qubits=2 oracle_applications=3\n"}

    assert checks.check(op, out([500, 0, 500]), ref) is None
    assert checks.check(op, out([500, 1, 499]), ref) is not None


def _qgi_bindings() -> dict:
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "qgi" or name.startswith("qgi.")
            for attr, value in vars(module).items()}


def test_tracer_uninstall_restores_every_rebound_name():
    import qgi  # noqa: F401  (loads every qgi module)

    before = _qgi_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        during = _qgi_bindings()
        changed = {key for key in before if during[key] is not before[key]}
        # References by name in other modules are rebound, not just the definitions.
        for key in [("qgi.invariant", "run"), ("qgi.cli", "run_survey"),
                    ("qgi.survey", "canonical_code"), ("qgi", "classical_histogram"),
                    ("qgi.fixtures", "parse_adjacency")]:
            assert key in changed
        for mod, names in tracer.BOUNDARIES.items():
            for fname in names:
                assert (f"qgi.{mod}", fname) in changed
    finally:
        t.uninstall()
    after = _qgi_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


COUNTS = ("circuit.gates_h", "circuit.gates_cp", "circuit.gates_ccp", "circuit.gates_swap",
          "simulator.amp_passes", "invariant.subsets_swept", "survey.candidates",
          "survey.classes")


def _traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced_run(workload, 4), _traced_run(workload, 4)
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
        assert first[name]["value"] > 0, name
    assert set(first) == {name for name, _ in tracer.PER_LAYER} | {"trace.overhead_s"}


def test_benchmark_json_lists_every_traced_metric():
    per_layer = compare.load_benchmark()["per_layer"]
    assert [(m["name"], m["unit"]) for m in per_layer] == \
        [*tracer.PER_LAYER, ("trace.overhead_s", "s")]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "qgibench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "qgibench/run.py", "--workload", "qpe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_verdicts():
    base = {s: 1.0 + 0.01 * (s % 3) for s in range(10)}
    assert compare.verdict(base, {s: v * 0.8 for s, v in base.items()}, "lower", 0.1)[0] \
        == "improved"
    assert compare.verdict(base, {s: v * 1.3 for s, v in base.items()}, "lower", 0.1)[0] \
        == "worse"
    assert compare.verdict(base, {s: v * 1.02 for s, v in base.items()}, "lower", 0.1)[0] \
        == "no worse"
    noisy = {s: 1.0 + 0.5 * (s % 2) for s in range(10)}
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
