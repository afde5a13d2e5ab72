from __future__ import annotations

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from conftest import (
    exact_char_poly,
    graphs,
    poly_mul,
    random_graph,
    random_permutation,
    slow_char_poly,
    slow_histogram,
)
from hypothesis import given
from hypothesis import strategies as st

import qgi.invariant
import qgi.simulator
from qgi import (
    CharPoly,
    EdgeHistogram,
    Graph,
    InputError,
    InternalCheckError,
    ResourceLimitError,
    are_isomorphic,
    build_qpe,
    char_poly,
    classical_histogram,
    induced_edge_count,
    invariant_equal,
    marginal,
    max_independent_set,
    named_graph,
    parse_edge_list,
    prop1_check,
    quantum_histogram,
    readout,
    run,
    spectra_equal,
)
from qgi.invariant import _SLICE_BITS, _edge_counts

FROZEN_COUNTS = {
    "c4": [7, 4, 4, 0, 1],
    "m1": [7, 4, 4, 0, 1],
    "m2": [7, 4, 4, 0, 1],
    "m3": [8, 5, 2, 1],
    "petersen": [76, 135, 165, 135, 180, 87, 100, 60, 30, 30, 15, 0, 10, 0, 0, 1],
    "prism5": [81, 125, 155, 180, 125, 127, 80, 65, 30, 30, 15, 0, 10, 0, 0, 1],
    "g1": [26, 33, 27, 18, 13, 5, 5, 0, 1],
    "g2": [26, 33, 27, 18, 13, 5, 5, 0, 1],
}

STAR4 = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
C4_PLUS_K1 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3)])


# --- classical histogram ---

def test_classical_histogram_fixture_values():
    for name, counts in FROZEN_COUNTS.items():
        hist = classical_histogram(named_graph(name))
        assert list(hist.counts) == counts, name
        assert sum(hist.counts) == 1 << hist.n


def test_classical_histogram_matches_subset_enumeration():
    rng = random.Random(301)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 6))
        assert list(classical_histogram(g).counts) == slow_histogram(g), g.adj


@given(g=graphs(max_n=8), data=st.data())
def test_histogram_is_isomorphism_invariant(g, data):
    h = g.permuted(tuple(data.draw(st.permutations(range(g.n)))))
    assert classical_histogram(h).counts == classical_histogram(g).counts
    assert quantum_histogram(h).histogram.counts == quantum_histogram(g).histogram.counts


def test_histogram_moment_identity():
    # each edge is induced by exactly 2^(n-2) subsets
    rng = random.Random(303)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 8))
        hist = classical_histogram(g)
        assert sum(k * c for k, c in enumerate(hist.counts)) == g.m << (g.n - 2)


def test_histogram_top_bin_counts_isolated_vertices():
    # subsets inducing all m edges: the non-isolated core plus any
    # subset of isolated vertices
    base = parse_edge_list("6; 0 1; 1 2; 0 2")  # triangle plus 3 isolated
    assert classical_histogram(base).counts[3] == 8
    assert classical_histogram(C4_PLUS_K1).counts[4] == 2


@given(graphs())
def test_classical_histogram_matches_per_mask_counts(g):
    # The subset-doubling kernel against the independent per-mask count.
    counts = [0] * (g.m + 1)
    for mask in range(1 << g.n):
        counts[induced_edge_count(g, mask)] += 1
    assert list(classical_histogram(g).counts) == counts


@pytest.mark.parametrize("n", [19, 21])
def test_edge_counts_across_slice_boundaries(n):
    rng = random.Random(308 + n)
    g = random_graph(rng, n, p=0.3)
    size = 1 << _SLICE_BITS
    starts = []
    for start, e in _edge_counts(g):
        assert e.dtype == np.uint16 and len(e) == size
        # The first and last mask of every slice: both sides of each boundary.
        for offset in (0, 1, size - 2, size - 1, rng.randrange(size)):
            assert int(e[offset]) == induced_edge_count(g, start + offset)
        starts.append(start)
    assert starts == list(range(0, 1 << n, size))


def test_max_independent_set_skips_slices_without_edgeless_subsets():
    # Every mask holding both vertices 18 and 19 induces their edge, so
    # the slice with both high bits set has no edgeless subset at all.
    g = Graph.from_edges(20, [(18, 19), (0, 1), (2, 3)])
    size, mask = max_independent_set(g)
    assert size == 17
    assert mask == (1 << 20) - 1 - (1 << 1) - (1 << 3) - (1 << 19)
    assert induced_edge_count(g, mask) == 0


# --- quantum histogram ---

def test_quantum_matches_classical_on_fixtures():
    for name in ("c4", "m3", "g1", "prism5"):
        g = named_graph(name)
        outcome = quantum_histogram(g)
        assert outcome.source == "qpe-exact"
        assert outcome.histogram.counts == classical_histogram(g).counts
        scale = 1 << g.n
        for prob, count in zip(outcome.probabilities, outcome.histogram.counts):
            assert prob == pytest.approx(count / scale, abs=1e-9)


def test_quantum_matches_classical_random():
    rng = random.Random(304)
    for _ in range(12):
        g = random_graph(rng, rng.randint(2, 7))
        assert quantum_histogram(g).histogram.counts == classical_histogram(g).counts


def test_quantum_fuse_equivalent():
    # quantum_histogram runs the fused circuit; the paper's circuit, with
    # the oracle applied 2^j times, must read the same histogram.
    for name in ("m3", "g2"):
        g = named_graph(name)
        circuit = build_qpe(g, fuse=False)
        scaled = marginal(run(circuit), circuit.est_register) * (1 << g.n)
        counts = np.rint(scaled).astype(np.int64)
        np.testing.assert_allclose(scaled, counts, rtol=0, atol=1e-6)
        assert counts[g.m + 1 :].sum() == 0
        assert tuple(counts[: g.m + 1]) == quantum_histogram(g).histogram.counts


def test_quantum_edgeless_short_circuit(monkeypatch):
    widths = []

    def recorded(circuit, **kwargs):
        widths.append(circuit.width)
        return readout(circuit, **kwargs)

    monkeypatch.setattr(qgi.invariant, "readout", recorded)
    g = parse_edge_list("3;")
    outcome = quantum_histogram(g)
    assert outcome.histogram.counts == (8,)
    assert outcome.probabilities == (1.0,)
    assert outcome.plan.t == 1
    assert widths == []
    # Shot mode samples the width-4 circuit like any other graph.
    shot = quantum_histogram(g, shots=100, seed=3)
    assert shot.shot_counts == (100,) and shot.source == "qpe-shots"
    assert shot.histogram is None and widths == [4]


@pytest.mark.parametrize("slice_bits", [qgi.simulator._SLICE_BITS, 2])
@given(g=graphs(max_n=8))
def test_quantum_matches_sweep_on_random_graphs(slice_bits, g):
    # With slices of 4 graph basis states the high vertices gate phase
    # terms against start, as every vertex from 18 up does by default,
    # and chunks of 4 amplitudes split the signatures.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qgi.simulator, "_SLICE_BITS", slice_bits)
        mp.setattr(qgi.simulator, "_BLOCK_BITS", min(slice_bits, qgi.simulator._BLOCK_BITS))
        assert quantum_histogram(g).histogram.counts == classical_histogram(g).counts


@pytest.mark.parametrize("m", [16, 100, 276])
def test_quantum_matches_sweep_on_24_vertices(m):
    # 64 slices of 2^18 subsets each, at widths 29, 31 and 33 (K24): the
    # read-out holds one slice, whatever the width.
    rng = random.Random(316)
    pairs = [(i, j) for i in range(24) for j in range(i + 1, 24)]
    g = Graph.from_edges(24, rng.sample(pairs, m))
    tracemalloc.start()
    try:
        counts = quantum_histogram(g).histogram.counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == classical_histogram(g).counts
    assert peak < 32 << 20


def test_quantum_histogram_streams_without_the_statevector(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the full-state path ran")

    # Neither `run` nor its memory admission: the read-out holds one
    # slice of signatures.
    monkeypatch.setattr(qgi.simulator, "run", refuse)
    monkeypatch.setattr(qgi.simulator, "_mem_available", refuse)
    rng = random.Random(310)
    pairs = [(i, j) for i in range(16) for j in range(i + 1, 16)]
    g = Graph.from_edges(16, rng.sample(pairs, 24))  # width 16 + 5
    tracemalloc.start()
    try:
        outcome = quantum_histogram(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.histogram.counts == classical_histogram(g).counts
    assert peak < 16 << 20  # the 2^21 amplitudes alone are 32 MiB
    assert sum(quantum_histogram(g, shots=1000, seed=1).shot_counts) == 1000


def test_quantum_shots_mode():
    g = named_graph("m3")
    outcome = quantum_histogram(g, shots=50_000, seed=9)
    assert outcome.source == "qpe-shots"
    assert outcome.histogram is None
    assert sum(outcome.shot_counts) == 50_000
    assert outcome.probabilities == tuple(c / 50_000 for c in outcome.shot_counts)
    again = quantum_histogram(g, shots=50_000, seed=9)
    assert again.shot_counts == outcome.shot_counts
    # frequencies land near the exact masses at this sample size
    for freq, prob in zip(outcome.probabilities, (0.5, 0.3125, 0.125, 0.0625)):
        assert freq == pytest.approx(prob, abs=0.02)


def test_quantum_respects_qubit_budget():
    # 24 vertices and 16 edges need 5 estimation qubits, width 29.  The
    # read-out has no width cap; HARD_MAX_QUBITS caps only `run`, which
    # refuses before it allocates.
    wide = Graph.from_edges(24, [(i, i + 1) for i in range(16)])
    assert quantum_histogram(wide).histogram.counts == classical_histogram(wide).counts
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="28-qubit limit"):
            qgi.simulator.run(build_qpe(wide, fuse=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_quantum_plan_metadata():
    outcome = quantum_histogram(named_graph("petersen"))
    assert (outcome.plan.t, outcome.plan.oracle_calls) == (4, 15)


# --- equality ---

def test_invariant_equal():
    assert invariant_equal(named_graph("m1"), named_graph("m2"))
    assert not invariant_equal(named_graph("m1"), named_graph("m3"))
    assert not invariant_equal(named_graph("c4"), STAR4)  # different n
    assert invariant_equal(named_graph("g1"), named_graph("g2"))  # collision
    assert not invariant_equal(named_graph("petersen"), named_graph("prism5"))


# --- characteristic polynomial ---

def test_char_poly_small_frozen():
    assert char_poly(Graph.from_edges(2, [(0, 1)])).coeffs == (1, 0, -1)
    assert char_poly(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])).coeffs == (1, 0, -3, -2)
    assert char_poly(named_graph("c4")).coeffs == (1, 0, -4, 0, 0)
    assert char_poly(named_graph("petersen")).coeffs == (
        1, 0, -15, 0, 75, -24, -165, 120, 120, -160, 48,
    )


def test_char_poly_matches_expansion_oracle():
    rng = random.Random(305)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 5))
        assert list(char_poly(g).coeffs) == slow_char_poly(g), g.adj


def test_char_poly_structure():
    rng = random.Random(306)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 7))
        coeffs = char_poly(g).coeffs
        assert coeffs[0] == 1 and coeffs[1] == 0
        assert coeffs[2] == -g.m  # second symmetric function counts edges
        perm = random_permutation(rng, g.n)
        assert char_poly(g.permuted(perm)).coeffs == coeffs


@given(graphs(max_n=24))
def test_char_poly_matches_exact_recurrence(g):
    # The Python-int recurrence cannot overflow, so this pins the int64 bound.
    assert list(char_poly(g).coeffs) == exact_char_poly(g)


def test_char_poly_dense_graphs_above_16_vertices():
    # Hypothesis draws mostly sparse graphs; half-dense ones carry the
    # largest entries short of K24.
    rng = random.Random(307)
    for n in range(17, 25):
        g = random_graph(rng, n)
        assert list(char_poly(g).coeffs) == exact_char_poly(g), g.adj


def _poly_pow(p: list[int], e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = poly_mul(out, p)
    return out


def test_char_poly_closed_forms_at_24_vertices():
    pairs = [(i, j) for i in range(24) for j in range(i + 1, 24)]
    k24 = Graph.from_edges(24, pairs)
    assert list(char_poly(k24).coeffs) == poly_mul([1, -23], _poly_pow([1, 1], 23))
    assert list(char_poly(Graph.from_edges(24, [])).coeffs) == [1] + [0] * 24
    k12_12 = Graph.from_edges(24, [(i, j) for i in range(12) for j in range(12, 24)])
    assert list(char_poly(k12_12).coeffs) == [1, 0, -144] + [0] * 22
    matching = Graph.from_edges(24, [(2 * i, 2 * i + 1) for i in range(12)])
    assert list(char_poly(matching).coeffs) == _poly_pow([1, 0, -1], 12)


def test_spectra_equal():
    assert spectra_equal(named_graph("m1"), named_graph("m2"))
    assert spectra_equal(STAR4, C4_PLUS_K1)  # cospectral non-isomorphic pair
    assert not spectra_equal(named_graph("c4"), named_graph("m3"))
    assert not spectra_equal(named_graph("c4"), STAR4)


def test_cospectral_pair_separated_by_histogram():
    assert are_isomorphic(STAR4, C4_PLUS_K1) is None
    assert spectra_equal(STAR4, C4_PLUS_K1)
    assert not invariant_equal(STAR4, C4_PLUS_K1)
    assert classical_histogram(STAR4).counts == (17, 4, 6, 4, 1)
    assert classical_histogram(C4_PLUS_K1).counts == (14, 8, 8, 0, 2)


# --- subset-preservation check ---

def test_prop1_identity_and_witness():
    m1, m2 = named_graph("m1"), named_graph("m2")
    assert prop1_check(m1, m1, (0, 1, 2, 3))
    witness = are_isomorphic(m1, m2)
    assert witness is not None
    assert prop1_check(m1, m2, witness)


def test_prop1_matches_isomorphism_over_all_perms():
    rng = random.Random(307)
    for _ in range(6):
        n = rng.randint(2, 5)
        g1 = random_graph(rng, n)
        g2 = random_graph(rng, n)
        by_perms = any(
            prop1_check(g1, g2, perm) for perm in itertools.permutations(range(n))
        )
        assert by_perms == (are_isomorphic(g1, g2) is not None)


def test_prop1_rejects_relabeling_that_moves_edges():
    g1 = named_graph("g1")
    g2 = named_graph("g2")
    assert not prop1_check(g1, g2, tuple(range(7)))


def test_prop1_validation():
    c4 = named_graph("c4")
    with pytest.raises(InputError, match="equal vertex counts"):
        prop1_check(c4, STAR4, (0, 1, 2, 3))
    with pytest.raises(InputError, match="not a permutation"):
        prop1_check(c4, c4, (0, 1, 2, 2))


def test_prop1_check_above_sixteen_vertices():
    # The streamed sweep covers every order a Graph allows.
    rng = random.Random(20)
    g = random_graph(rng, 20, 0.3)
    perm = random_permutation(rng, 20)
    assert prop1_check(g, g.permuted(perm), perm)
    assert not prop1_check(g, g.permuted(perm), tuple(range(20)))


# --- independent sets ---

def test_max_independent_set_fixtures():
    size, mask = max_independent_set(named_graph("prism5"))
    assert size == 4 and mask == 0b0010101010  # vertices {1, 3, 5, 7}
    assert max_independent_set(named_graph("petersen")) == (4, 116)


def test_max_independent_set_is_valid_and_maximal():
    for name in ("prism5", "petersen", "g1"):
        g = named_graph(name)
        size, mask = max_independent_set(g)
        assert bin(mask).count("1") == size
        assert induced_edge_count(g, mask) == 0
        for other in range(1 << g.n):
            if induced_edge_count(g, other) == 0:
                pop = bin(other).count("1")
                assert pop <= size
                if pop == size:
                    assert mask <= other  # smallest-mask tie break


def test_max_independent_set_small():
    assert max_independent_set(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])) == (1, 1)
    assert max_independent_set(parse_edge_list("3; 0 1; 1 2")) == (2, 0b101)
    assert max_independent_set(parse_edge_list("3;")) == (3, 0b111)


# --- result types ---

def test_edge_histogram_validation():
    EdgeHistogram(n=2, m=1, counts=(3, 1))  # valid
    with pytest.raises(InternalCheckError, match="length"):
        EdgeHistogram(n=2, m=1, counts=(4,))
    with pytest.raises(InternalCheckError, match="negative"):
        EdgeHistogram(n=2, m=1, counts=(5, -1))
    with pytest.raises(InternalCheckError, match="sums to"):
        EdgeHistogram(n=2, m=1, counts=(3, 2))
    with pytest.raises(InternalCheckError, match="full vertex set"):
        EdgeHistogram(n=2, m=1, counts=(4, 0))
    with pytest.raises(InternalCheckError, match="singleton"):
        EdgeHistogram(n=2, m=1, counts=(2, 2))


def test_edge_histogram_probabilities():
    hist = EdgeHistogram(n=2, m=1, counts=(3, 1))
    assert hist.probabilities == (0.75, 0.25)


def test_char_poly_type_requires_monic():
    with pytest.raises(InternalCheckError, match="monic"):
        CharPoly(coeffs=(2, 0))
    with pytest.raises(InternalCheckError, match="monic"):
        CharPoly(coeffs=())

