"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line.  Tolerances are stated inline; timing budgets use wall
clock on the current machine."""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from qgi import (
    Graph,
    are_isomorphic,
    char_poly,
    classical_histogram,
    induced_edge_count,
    invariant_equal,
    named_graph,
    parse_graph6,
    plan_precision,
    quantum_histogram,
    run_survey,
    spectra_equal,
)
from qgi.circuit import Circuit, build_oracle, h
from qgi.cli import main
from qgi.simulator import phase_table, run

PETERSEN_COUNTS = (76, 135, 165, 135, 180, 87, 100, 60, 30, 30, 15, 0, 10, 0, 0, 1)
PRISM5_COUNTS = (81, 125, 155, 180, 125, 127, 80, 65, 30, 30, 15, 0, 10, 0, 0, 1)
G_COUNTS = (26, 33, 27, 18, 13, 5, 5, 0, 1)


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num} {name}: PASS")


def all_labeled_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for k, e in enumerate(pairs) if (bits >> k) & 1])


def test_criterion_01_c4_end_to_end(capsys):
    with criterion(1, "c4-end-to-end"):
        start = time.perf_counter()
        assert main(["invariant", "c4", "--mode", "qpe", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == [7, 4, 4, 0, 1]
        assert doc["probabilities"] == pytest.approx(
            [0.4375, 0.25, 0.25, 0.0, 0.0625], abs=1e-12
        )
        assert main(["invariant", "c4", "--mode", "qpe"]) == 0
        table = capsys.readouterr().out
        percents = [line.split()[1] for line in table.splitlines()[1:]]
        assert percents == ["43.75", "25.00", "25.00", "0.00", "6.25"]
        assert time.perf_counter() - start < 1.0


def test_criterion_02_m_series(capsys):
    with criterion(2, "m-series-tables"):
        start = time.perf_counter()
        m1, m2, m3 = named_graph("m1"), named_graph("m2"), named_graph("m3")
        out = quantum_histogram(m3)
        assert out.histogram.counts == (8, 5, 2, 1)
        assert [round(100 * p, 2) for p in out.probabilities] == [50.0, 31.25, 12.5, 6.25]
        assert invariant_equal(m1, m2) and are_isomorphic(m1, m2) is not None
        assert not invariant_equal(m1, m3)
        assert time.perf_counter() - start < 1.0


def test_criterion_03_petersen_vs_prism():
    with criterion(3, "petersen-vs-prism"):
        start = time.perf_counter()
        pet = quantum_histogram(named_graph("petersen"))
        pri = quantum_histogram(named_graph("prism5"))
        assert pet.histogram.counts == PETERSEN_COUNTS
        assert pri.histogram.counts == PRISM5_COUNTS
        assert sum(pet.histogram.counts) == 1024 and sum(pri.histogram.counts) == 1024
        assert pet.histogram.counts[0] == 76 and pri.histogram.counts[0] == 81
        plan = pet.plan
        assert (10 + plan.t, plan.t, plan.oracle_calls) == (14, 4, 15)
        assert time.perf_counter() - start < 10.0


def test_criterion_04_counterexample():
    with criterion(4, "counterexample-pair"):
        start = time.perf_counter()
        g1, g2 = named_graph("g1"), named_graph("g2")
        assert are_isomorphic(g1, g2) is None
        h1 = classical_histogram(g1)
        h2 = classical_histogram(g2)
        assert h1.counts == G_COUNTS and h2.counts == G_COUNTS
        for k, c in enumerate(G_COUNTS):
            assert h1.probabilities[k] == pytest.approx(c / 128, abs=1e-15)
        # the 8-edge row is 1/128 = 0.78125%, from its count of 1
        assert 100 * h1.probabilities[8] == pytest.approx(0.78125)
        assert time.perf_counter() - start < 1.0


def test_criterion_05_census():
    with criterion(5, "census"):
        start = time.perf_counter()
        expect = {
            1: (1, 1, 1),
            2: (2, 2, 2),
            3: (4, 4, 4),
            4: (11, 11, 11),
            5: (34, 34, 33),
            6: (156, 156, 151),
            7: (1044, 1021, 988),
        }
        for n, (classes, dq, ds) in expect.items():
            report = run_survey(n)
            assert report.class_count == classes, n
            assert report.distinct_quantum == dq, n
            assert report.distinct_spectra == ds, n
            for a6, b6 in report.collisions:
                assert are_isomorphic(parse_graph6(a6), parse_graph6(b6)) is None
        assert time.perf_counter() - start < 60.0


def test_criterion_06_oracle_equivalence():
    with criterion(6, "oracle-equivalence"):
        checked = 0
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                assert quantum_histogram(g).histogram.counts == classical_histogram(g).counts
                checked += 1
        assert checked == 1 + 2 + 8 + 64 + 1024
        rng = random.Random(606)
        for _ in range(50):
            n = rng.randint(6, 8)
            g = Graph.from_edges(
                n,
                [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5],
            )
            # run() certifies norm preservation to 1e-9 on every gate pass
            assert quantum_histogram(g).histogram.counts == classical_histogram(g).counts


def test_criterion_07_phase_table():
    with criterion(7, "phase-table"):
        c4 = named_graph("c4")
        expect = {s: induced_edge_count(c4, s) for s in range(16)}
        circuit = Circuit(
            n_graph=4,
            n_est=0,
            gates=tuple(h(q) for q in range(4)) + build_oracle(c4, Fraction(1, 8)).gates,
        )
        table = phase_table(run(circuit), math.pi / 4)
        assert table == expect
        assert sorted(set(table.values())) == [0, 1, 2, 4]
        rng = random.Random(707)
        for _ in range(10):
            n = rng.randint(2, 6)
            g = Graph.from_edges(
                n,
                [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5],
            )
            if g.m == 0:
                continue
            plan = plan_precision(g.m)
            circuit = Circuit(
                n_graph=n,
                n_est=0,
                gates=tuple(h(q) for q in range(n))
                + build_oracle(g, plan.theta_turns).gates,
            )
            table = phase_table(run(circuit), plan.theta)
            assert table == {s: induced_edge_count(g, s) for s in range(1 << n)}


def test_criterion_08_precision_plan():
    with criterion(8, "precision-plan"):
        for m in range(1, 65):
            t_brute = 1
            while (1 << t_brute) <= m:
                t_brute += 1
            plan = plan_precision(m)
            assert plan.t == t_brute == math.ceil(math.log2(m + 1))
            assert plan.theta * m < math.tau
        assert plan_precision(8).t == 4


def test_criterion_09_shot_sampling():
    with criterion(9, "shot-sampling"):
        shots = 1_000_000
        outcome = quantum_histogram(named_graph("c4"), shots=shots, seed=20260817)
        exact = (0.4375, 0.25, 0.25, 0.0, 0.0625)
        assert sum(outcome.shot_counts) == shots
        for k, p in enumerate(exact):
            sigma = math.sqrt(shots * p * (1 - p))
            assert abs(outcome.shot_counts[k] - shots * p) <= 5 * sigma, k
        again = quantum_histogram(named_graph("c4"), shots=shots, seed=20260817)
        assert again.shot_counts == outcome.shot_counts


def test_criterion_10_spectral_module():
    with criterion(10, "spectral-module"):
        star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        c4k1 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert char_poly(star).coeffs == char_poly(c4k1).coeffs == (1, 0, -4, 0, 0, 0)
        assert spectra_equal(star, c4k1)
        assert are_isomorphic(star, c4k1) is None
        assert not invariant_equal(star, c4k1)  # histogram closes the 34-vs-33 gap
        rng = random.Random(1010)
        for g in (star, c4k1):
            base = char_poly(g).coeffs
            for _ in range(100):
                perm = list(range(5))
                rng.shuffle(perm)
                assert char_poly(g.permuted(tuple(perm))).coeffs == base
