from __future__ import annotations

import io
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qgi.simulator
from qgi import Graph, build_oracle, build_qpe, inverse_qft, named_graph
from qgi.circuit import Circuit, Gate, ccp, cp, h, p, swap
from qgi.errors import InputError, InternalCheckError, ResourceLimitError
from qgi.simulator import (
    Statevector,
    apply_gate,
    dump_amplitudes,
    init_state,
    marginal,
    peak_bytes,
    phase_table,
    readout,
    run,
    sample,
)

from conftest import random_graph

# Induced edge counts of C4 by subset mask, frozen by hand.
C4_EDGE_COUNTS = [0, 0, 0, 1, 0, 0, 1, 2, 0, 1, 0, 2, 1, 2, 2, 4]


def _basis(n: int, idx: int) -> Statevector:
    state = init_state(n)
    state.amps[0] = 0.0
    state.amps[idx] = 1.0
    return state


def _random_state(rng: np.random.Generator, n: int) -> Statevector:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return Statevector(n, amps.astype(np.complex128))


def _slow_apply(amps: np.ndarray, gate) -> np.ndarray:
    """Reference per-index gate action, independent of the reshape tricks."""
    out = np.zeros_like(amps)
    qs = gate.qubits
    for i in range(len(amps)):
        bits = [(i >> q) & 1 for q in qs]
        if gate.kind == "h":
            base = i & ~(1 << qs[0])
            lo, hi = amps[base], amps[base | (1 << qs[0])]
            out[i] = (lo + hi) / math.sqrt(2) if not bits[0] else (lo - hi) / math.sqrt(2)
        elif gate.kind in ("p", "cp", "ccp"):
            out[i] = amps[i] * (np.exp(1j * gate.phase) if all(bits) else 1.0)
        elif gate.kind == "swap":
            j = i
            if bits[0] != bits[1]:
                j = i ^ (1 << qs[0]) ^ (1 << qs[1])
            out[i] = amps[j]
    return out


# --- state construction ---

def test_init_state():
    state = init_state(3)
    assert state.n_qubits == 3
    assert state.amps.shape == (8,)
    assert state.amps[0] == 1.0 and np.count_nonzero(state.amps) == 1
    assert state.norm_sq() == pytest.approx(1.0)


def test_init_state_caps():
    with pytest.raises(ResourceLimitError):
        init_state(0)
    with pytest.raises(ResourceLimitError):
        init_state(29)


def test_apply_gate_range_check():
    state = init_state(2)
    with pytest.raises(InputError, match="out of range"):
        apply_gate(state, h(2))


# --- single-gate semantics against the per-index reference ---

def test_gates_match_reference_action():
    rng = np.random.default_rng(981)
    pyrng = random.Random(981)
    for _ in range(40):
        n = pyrng.randint(2, 5)
        state = _random_state(rng, n)
        qubits = pyrng.sample(range(n), k=min(n, 3))
        turns = Fraction(pyrng.randint(1, 15), 16)
        gate = pyrng.choice(
            [
                h(qubits[0]),
                p(qubits[0], turns),
                cp(qubits[0], qubits[1], turns),
                swap(qubits[0], qubits[1]),
            ]
            + ([ccp(*qubits[:3], turns)] if n >= 3 else [])
        )
        expect = _slow_apply(state.amps, gate)
        got = apply_gate(state, gate).amps
        assert np.allclose(got, expect, atol=1e-12), gate


def test_h_is_self_inverse():
    rng = np.random.default_rng(5)
    state = _random_state(rng, 4)
    before = state.amps.copy()
    apply_gate(apply_gate(state, h(2)), h(2))
    assert np.allclose(state.amps, before, atol=1e-12)


def test_phase_gate_inverses():
    rng = np.random.default_rng(6)
    state = _random_state(rng, 4)
    before = state.amps.copy()
    for gate, inv in [
        (p(1, Fraction(3, 8)), p(1, Fraction(-3, 8))),
        (cp(0, 3, Fraction(1, 4)), cp(3, 0, Fraction(-1, 4))),
        (ccp(0, 1, 2, Fraction(5, 16)), ccp(2, 1, 0, Fraction(-5, 16))),
        (swap(1, 3), swap(1, 3)),
    ]:
        apply_gate(apply_gate(state, gate), inv)
        assert np.allclose(state.amps, before, atol=1e-12), gate.kind


def test_cp_only_touches_both_bits_set():
    state = _basis(3, 0b101)
    apply_gate(state, cp(0, 1, Fraction(1, 4)))
    assert state.amps[0b101] == 1.0  # bit 1 clear: untouched
    apply_gate(state, cp(0, 2, Fraction(1, 4)))
    assert state.amps[0b101] == pytest.approx(np.exp(1j * math.pi / 2))


def test_swap_on_basis_state():
    state = _basis(3, 0b001)
    apply_gate(state, swap(0, 2))
    assert state.amps[0b100] == 1.0
    assert state.amps[0b001] == 0.0


def test_norm_preserved_by_random_circuits():
    rng = np.random.default_rng(77)
    pyrng = random.Random(77)
    state = _random_state(rng, 5)
    for _ in range(60):
        a, b, c = pyrng.sample(range(5), k=3)
        gate = pyrng.choice(
            [h(a), p(a, Fraction(7, 16)), cp(a, b, Fraction(1, 8)),
             ccp(a, b, c, Fraction(3, 4)), swap(a, b)]
        )
        apply_gate(state, gate)
        assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)


# --- full runs ---

def test_run_uniform_superposition():
    circuit = Circuit(n_graph=3, n_est=0, gates=tuple(h(q) for q in range(3)))
    state = run(circuit)
    assert np.allclose(state.amps, np.full(8, 1 / math.sqrt(8)), atol=1e-12)


def test_run_respects_qubit_budget():
    # A hand-built circuit one qubit past HARD_MAX_QUBITS: run refuses it
    # before a single amplitude is allocated, and the read-out, which
    # holds no statevector, returns its uniform marginal.
    wide = Circuit(n_graph=24, n_est=5, gates=tuple(h(q) for q in range(29)))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="28-qubit limit"):
            run(wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    np.testing.assert_allclose(readout(wide), np.full(32, 1 / 32), rtol=0, atol=1e-15)
    assert run(build_qpe(named_graph("c4"))).n_qubits == 7


def test_readout_caps_its_registers():
    # The read-out sweeps 2^n_graph graph basis states and holds 2^n_est
    # amplitudes per signature: more than a graph's 24 vertices or
    # HARD_MAX_QUBITS estimation qubits is refused before any work.
    for n_graph, n_est in ((25, 1), (1, 29)):
        w = n_graph + n_est
        circuit = Circuit(n_graph=n_graph, n_est=n_est, gates=tuple(h(q) for q in range(w)))
        with pytest.raises(ResourceLimitError, match="limit"):
            readout(circuit)


def test_oracle_on_superposition_carries_edge_counts():
    # H on every vertex qubit, then the phase oracle at theta = pi/4:
    # amplitude of mask s must be exp(i * e(s) * pi/4) / 4.
    g = named_graph("c4")
    circuit = Circuit(
        n_graph=4,
        n_est=0,
        gates=tuple(h(q) for q in range(4)) + build_oracle(g, Fraction(1, 8)).gates,
    )
    state = run(circuit)
    for s, k in enumerate(C4_EDGE_COUNTS):
        expect = np.exp(1j * k * math.pi / 4) / 4.0
        assert abs(state.amps[s] - expect) < 1e-12, s


# --- compiled run against the gate loop ---

def _gate_loop_state(circuit: Circuit) -> Statevector:
    """The reference: |0...0> and apply_gate for every gate, in order."""
    state = init_state(circuit.width)
    for gate in circuit.gates:
        apply_gate(state, gate)
    return state


def _gate_loop(circuit: Circuit) -> np.ndarray:
    return _gate_loop_state(circuit).amps


def _iqft_on_est(n_graph: int, n_est: int) -> tuple[Gate, ...]:
    return tuple(
        Gate(g.kind, tuple(q + n_graph for q in g.qubits), g.turns)
        for g in inverse_qft(n_est)
    )


# Dyadic turns of 1 to 16 bits: the phases a compiled run takes.
_DYADIC = st.builds(
    lambda k, bits: Fraction(2 * k + 1, 1 << bits) % 1,
    st.integers(0, 1 << 15),
    st.integers(1, 16),
)
# Turns no phase index holds: 17 bits, or not dyadic at all.
_OFF_GRID = st.sampled_from(
    [Fraction(1, 1 << 17), Fraction(1, 3), Fraction(2, 5), Fraction(7, 24)]
)
_ARITY = {"p": 1, "cp": 2, "ccp": 3}


@st.composite
def _qpe_shaped(draw) -> Circuit:
    """An H on every qubit in any order, dyadic phase gates, and an
    optional inverse QFT on the estimation register."""
    n_graph = draw(st.integers(1, 6))
    n_est = draw(st.integers(0, 8 - n_graph))
    tail = n_est > 0 and draw(st.booleans())
    w = n_graph + n_est
    gates = [h(q) for q in draw(st.permutations(range(w)))]
    kinds = [k for k, a in _ARITY.items() if a <= w]
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        qubits = tuple(draw(st.permutations(range(w)))[: _ARITY[kind]])
        gates.append(Gate(kind, qubits, draw(_DYADIC)))
    if tail:
        gates += _iqft_on_est(n_graph, n_est)
    return Circuit(n_graph=n_graph, n_est=n_est, gates=tuple(gates))


@st.composite
def _off_shape(draw) -> Circuit:
    """A QPE-shaped circuit broken one way: the H of a graph qubit is
    missing from the leading layer, or an H on a graph qubit, a swap or
    a phase off the 16-bit grid is inserted after it.  None of these
    gates can be mistaken for part of the inverse-QFT tail."""
    shaped = draw(_qpe_shaped())
    w = shaped.width
    gates = list(shaped.gates)
    qubits = draw(st.permutations(range(w)))
    graph_qubit = draw(st.integers(0, shaped.n_graph - 1))
    breaks = ["lead", "h", "phase"] + (["swap"] if w >= 2 else [])
    broken = draw(st.sampled_from(breaks))
    if broken == "lead":
        gates.remove(h(graph_qubit))
    else:
        if broken == "h":
            gate = h(graph_qubit)
        elif broken == "swap":
            gate = swap(*qubits[:2])
        else:
            phase = draw(st.sampled_from([k for k, a in _ARITY.items() if a <= w]))
            gate = Gate(phase, tuple(qubits[: _ARITY[phase]]), draw(_OFF_GRID))
        gates.insert(draw(st.integers(w, len(gates))), gate)
    return Circuit(n_graph=shaped.n_graph, n_est=shaped.n_est, gates=tuple(gates))


@pytest.mark.parametrize("slice_bits", [qgi.simulator._SLICE_BITS, 2])
@given(circuit=_qpe_shaped())
def test_compiled_run_matches_gate_loop(slice_bits, circuit):
    # Slices of 4 graph basis states split phase terms between the
    # doubling and the gating against start, as graphs on more than 18
    # vertices do by default; chunks of 4 amplitudes split a slice's
    # signatures, and a dense tally that small makes the relabel sort.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qgi.simulator, "_SLICE_BITS", slice_bits)
        mp.setattr(qgi.simulator, "_BLOCK_BITS", min(slice_bits, qgi.simulator._BLOCK_BITS))
        amps = run(circuit).amps
    np.testing.assert_allclose(amps, _gate_loop(circuit), rtol=0, atol=1e-12)


@pytest.mark.parametrize("slice_bits", [qgi.simulator._SLICE_BITS, 2])
@given(circuit=_qpe_shaped().filter(lambda c: c.n_est))
def test_readout_matches_marginal_of_run(slice_bits, circuit):
    # As above: with slices of 4 the gating against start and the
    # multi-bit estimation terms both matter, and every slice's
    # |rows|^2 adds into the one marginal.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qgi.simulator, "_SLICE_BITS", slice_bits)
        mp.setattr(qgi.simulator, "_BLOCK_BITS", min(slice_bits, qgi.simulator._BLOCK_BITS))
        probs = readout(circuit)
    expect = marginal(_gate_loop_state(circuit), circuit.est_register)
    np.testing.assert_allclose(probs, expect, rtol=0, atol=1e-12)


def _distinct_columns(n_graph: int, n_est: int, seed: int) -> Circuit:
    """A QPE-shaped circuit with random 16-bit turns on every pair of
    graph qubits and on every graph-estimation pair, so that almost every
    graph basis state has a signature of its own."""
    rng = random.Random(seed)
    w = n_graph + n_est

    def turns() -> Fraction:
        return Fraction(rng.randrange(1, 1 << 16), 1 << 16)

    gates = [h(q) for q in range(w)]
    gates += [cp(a, b, turns()) for a in range(n_graph) for b in range(a + 1, w)]
    gates += _iqft_on_est(n_graph, n_est)
    return Circuit(n_graph=n_graph, n_est=n_est, gates=tuple(gates))


@pytest.mark.parametrize("slice_bits", [qgi.simulator._SLICE_BITS, 2])
def test_distinct_signatures_match_gate_loop(slice_bits, monkeypatch):
    # 16-bit units on 2^7 signatures overflow the dense tally, so the
    # relabel sorts; the 2^7 * 2^3 rows span several chunks of 2^6.
    circuit = _distinct_columns(7, 3, 418)
    monkeypatch.setattr(qgi.simulator, "_SLICE_BITS", slice_bits)
    monkeypatch.setattr(qgi.simulator, "_BLOCK_BITS", 6)
    state = _gate_loop_state(circuit)
    np.testing.assert_allclose(run(circuit).amps, state.amps, rtol=0, atol=1e-12)
    expect = marginal(state, circuit.est_register)
    np.testing.assert_allclose(readout(circuit), expect, rtol=0, atol=1e-12)


def test_relabel_sorts_as_unique_does():
    # Both branches, the dense tally (the second case) and the sort,
    # number the distinct (id, units) pairs in sorted order, as np.unique
    # does, and count them.
    rng = np.random.default_rng(419)
    for count, bits, size in ((1 << 12, 16, 1 << 14), (3, 2, 1 << 17), (1 << 10, 9, 1 << 18)):
        ids = rng.integers(0, count, size=size).astype(np.intp)
        units = rng.integers(0, 1 << bits, size=size).astype(np.uint16)
        got_ids, got_counts = qgi.simulator._relabel(ids, count, units, bits)
        _, inverse, counts = np.unique(
            (ids << bits) | units, return_inverse=True, return_counts=True
        )
        np.testing.assert_array_equal(got_ids, inverse)
        np.testing.assert_array_equal(got_counts, counts)


@given(circuit=_off_shape())
def test_other_circuits_are_refused(circuit):
    # Only the gate loop, called directly, simulates such a circuit.
    with pytest.raises(InputError, match="phase-estimation shape"):
        run(circuit)
    with pytest.raises(InputError, match="phase-estimation shape" if circuit.n_est else "empty"):
        readout(circuit)


def test_compiled_run_matches_gate_loop_beyond_one_block():
    circuit = build_qpe(random_graph(random.Random(413), 13, 0.3), fuse=True)
    assert circuit.width > qgi.simulator._BLOCK_BITS
    np.testing.assert_allclose(run(circuit).amps, _gate_loop(circuit), rtol=0, atol=1e-12)


def test_fused_and_unfused_qpe_compile_alike():
    rng = random.Random(411)
    for g in (named_graph("petersen"), random_graph(rng, 7), random_graph(rng, 8)):
        fused = build_qpe(g, fuse=True)
        unfused = build_qpe(g, fuse=False)
        amps = run(fused).amps
        np.testing.assert_allclose(run(unfused).amps, amps, rtol=0, atol=1e-12)
        np.testing.assert_allclose(_gate_loop(fused), amps, rtol=0, atol=1e-12)
        np.testing.assert_allclose(_gate_loop(unfused), amps, rtol=0, atol=1e-12)


def test_qpe_circuits_need_no_gate_loop(monkeypatch):
    # Uniform fill, one phase run and the FFT tail cover every QPE gate.
    applied = []
    monkeypatch.setattr(qgi.simulator, "apply_gate", lambda s, g: applied.append(g))
    rng = random.Random(412)
    for g in (named_graph("c4"), named_graph("petersen"), random_graph(rng, 9)):
        for fuse in (True, False):
            run(build_qpe(g, fuse=fuse))
    assert applied == []


# --- memory admission ---

def test_peak_bytes_counts_amplitudes_and_temporaries():
    # Amplitudes; per slice, a complex row and three uint16 units per
    # signature and group, as if every graph basis state had a signature
    # of its own and each of the 2^t estimation-qubit sets a group; 112
    # bytes per column (at least 2^16, the dense tallies); one chunk of
    # at least 2^16 amplitudes (index, intp cast, lookup).
    w = 5
    uniform = tuple(h(q) for q in range(w))
    small = (26 + 112) << 16
    assert peak_bytes(Circuit(n_graph=w, n_est=0, gates=uniform)) == (16 << 5) + (22 << 5) + small
    assert peak_bytes(build_qpe(named_graph("c4"))) == (16 << 7) + (22 << 7) + small
    # The estimate is pure arithmetic of the register sizes: width-28
    # circuits allocate nothing, and a circuit that run refuses gets the
    # same figure.  Slices hold 2^18 graph basis states.
    wide = tuple(h(q) for q in range(28))
    for gates in (wide, wide + (cp(0, 27, Fraction(1, 4)),), wide + (h(3),)):
        for n_graph, n_est in ((28, 0), (24, 4)):
            circuit = Circuit(n_graph=n_graph, n_est=n_est, gates=gates)
            assert peak_bytes(circuit) == (16 << 28) + (22 << (18 + n_est)) + (112 << 18) + (26 << 16)


def test_run_peak_stays_within_peak_bytes():
    # The admission cannot under-count: run's measured peak on a width-20
    # QPE circuit, and on circuits where nearly every graph basis state
    # has its own signature, stays within peak_bytes.
    rng = random.Random(420)
    pairs = [(i, j) for i in range(15) for j in range(i + 1, 15)]
    qpe = build_qpe(Graph.from_edges(15, rng.sample(pairs, 28)), fuse=True)
    assert qpe.width == 20
    for circuit in (qpe, _distinct_columns(12, 4, 421), _distinct_columns(19, 2, 422)):
        tracemalloc.start()
        try:
            run(circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (16 << circuit.width) < peak <= peak_bytes(circuit)


def test_readout_memory_is_one_slice():
    # Nearly 2^20 signatures of 2^4 rows at width 24: the read-out holds
    # one slice of 2^18 graph basis states and one chunk of rows, never
    # the 2^24 amplitudes (256 MiB).
    circuit = _distinct_columns(20, 4, 423)
    tracemalloc.start()
    try:
        probs = readout(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert peak < 32 << 20


def test_run_refuses_beyond_available_memory(monkeypatch):
    qpe = build_qpe(named_graph("petersen"))
    need = peak_bytes(qpe)
    monkeypatch.setattr(qgi.simulator, "_mem_available", lambda: need - 1)
    with pytest.raises(ResourceLimitError, match="MiB available"):
        run(qpe)
    monkeypatch.setattr(qgi.simulator, "_mem_available", lambda: need)
    assert run(qpe).n_qubits == 14
    # Where the available memory cannot be read, nothing is refused.
    monkeypatch.setattr(qgi.simulator, "_mem_available", lambda: None)
    assert run(qpe).n_qubits == 14


# --- marginals ---

def test_marginal_c4_qpe_frozen():
    state = run(build_qpe(named_graph("c4")))
    probs = marginal(state, (4, 5, 6))
    expect = [0.4375, 0.25, 0.25, 0.0, 0.0625, 0.0, 0.0, 0.0]
    assert probs.tolist() == pytest.approx(expect, abs=1e-12)
    # clamped entries are exact zeros, not tiny residue
    assert probs[3] == 0.0 and all(x == 0.0 for x in probs[5:])


def test_marginal_m3_qpe_frozen():
    state = run(build_qpe(named_graph("m3")))
    probs = marginal(state, (4, 5))
    assert probs.tolist() == pytest.approx([0.5, 0.3125, 0.125, 0.0625], abs=1e-12)


def test_marginal_register_order_semantics():
    # outcome bit p reads register[p]
    state = _basis(3, 0b011)
    assert marginal(state, (0,)).tolist() == [0.0, 1.0]
    assert marginal(state, (2,)).tolist() == [1.0, 0.0]
    assert marginal(state, (1, 2)).tolist() == [0.0, 1.0, 0.0, 0.0]
    assert marginal(state, (2, 1)).tolist() == [0.0, 0.0, 1.0, 0.0]
    assert marginal(state, (0, 1, 2)).tolist()[0b011] == 1.0


def test_marginal_traces_out_other_qubits():
    state = init_state(2)
    apply_gate(state, h(0))
    probs = marginal(state, (1,))
    assert probs.tolist() == pytest.approx([1.0, 0.0], abs=1e-12)


def test_marginal_input_validation():
    state = init_state(2)
    with pytest.raises(InputError, match="empty"):
        marginal(state, ())
    with pytest.raises(InputError, match="duplicate"):
        marginal(state, (0, 0))
    with pytest.raises(InputError, match="out of range"):
        marginal(state, (5,))


# --- sampling ---

def test_sample_point_mass():
    counts = sample(marginal(init_state(3), (0, 1, 2)), shots=500, seed=1)
    assert counts.tolist() == [500, 0, 0, 0, 0, 0, 0, 0]
    assert counts.dtype == np.int64


def test_sample_reproducible_and_seed_sensitive():
    probs = readout(build_qpe(named_graph("m3")))
    a = sample(probs, shots=2000, seed=42)
    b = sample(probs, shots=2000, seed=42)
    c = sample(probs, shots=2000, seed=43)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()


# Tallies of sample(m3 read-out, 2000 shots, seed 42), frozen.
M3_TALLIES = [1008, 603, 263, 126]


@pytest.mark.parametrize("chunk", [qgi.simulator._SHOT_CHUNK, 7])
def test_sample_chunks_draw_one_stream(chunk, monkeypatch):
    monkeypatch.setattr(qgi.simulator, "_SHOT_CHUNK", chunk)
    probs = readout(build_qpe(named_graph("m3")))
    assert sample(probs, shots=2000, seed=42).tolist() == M3_TALLIES


def test_sample_memory_stays_one_chunk():
    probs = readout(build_qpe(named_graph("m3")))
    tracemalloc.start()
    try:
        counts = sample(probs, shots=10**7, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 10**7
    assert peak < 32 << 20


def test_sample_five_sigma():
    probs = readout(build_qpe(named_graph("m3")))
    shots = 100_000
    counts = sample(probs, shots=shots, seed=7)
    assert counts.sum() == shots
    for outcome, prob in enumerate([0.5, 0.3125, 0.125, 0.0625]):
        sigma = math.sqrt(shots * prob * (1 - prob))
        assert abs(counts[outcome] - shots * prob) <= 5 * sigma


def test_sample_rejects_bad_shots():
    with pytest.raises(InputError):
        sample(np.array([1.0]), shots=0, seed=0)


# --- phase table ---

def test_phase_table_c4_oracle():
    g = named_graph("c4")
    circuit = Circuit(
        n_graph=4,
        n_est=0,
        gates=tuple(h(q) for q in range(4)) + build_oracle(g, Fraction(1, 8)).gates,
    )
    state = run(circuit)
    table = phase_table(state, math.pi / 4)
    assert table == {s: k for s, k in enumerate(C4_EDGE_COUNTS)}


def test_phase_table_folds_full_turn():
    state = init_state(1)
    state.amps[0] = 0.0
    state.amps[1] = np.exp(1j * (math.tau - 1e-8))
    assert phase_table(state, math.pi / 4) == {1: 0}


def test_phase_table_rejects_off_grid_phase():
    state = init_state(1)
    state.amps[1] = np.exp(1j * 0.1)
    with pytest.raises(InternalCheckError, match="amplitude 1"):
        phase_table(state, math.pi / 4)
    with pytest.raises(InputError):
        phase_table(state, 0.0)


def test_phase_table_ignores_zero_amplitudes():
    state = init_state(2)  # only |00> populated, phase 0
    assert phase_table(state, math.pi / 2) == {0: 0}


# --- dumps ---

def test_dump_amplitudes(monkeypatch):
    state = init_state(3)
    apply_gate(state, h(0))
    state.amps[5] = complex(0.0, -0.25)
    state.amps[6] = 1e-13  # rounding residue, not data
    r = 1 / math.sqrt(2)
    expect = {"qubits": 3, "amplitudes": [[0, r, 0.0], [1, r, 0.0], [5, 0.0, -0.25]]}
    # Chunks of 2 amplitudes write the same text as one chunk.
    for block_bits in (qgi.simulator._BLOCK_BITS, 1):
        monkeypatch.setattr(qgi.simulator, "_BLOCK_BITS", block_bits)
        fh = io.StringIO()
        dump_amplitudes(state, fh)
        assert fh.getvalue() == json.dumps(expect)


def test_dump_keeps_only_the_real_amplitudes():
    # Exact QPE leaves one estimation value per subset; the inverse
    # FFT's residue elsewhere is about 1e-17.
    fh = io.StringIO()
    dump_amplitudes(run(build_qpe(named_graph("petersen"))), fh)
    doc = json.loads(fh.getvalue())
    assert doc["qubits"] == 14
    assert len(doc["amplitudes"]) == 1 << 10


def test_dump_streams_in_chunks(tmp_path):
    rng = random.Random(415)
    pairs = [(i, j) for i in range(14) for j in range(i + 1, 14)]
    g = Graph.from_edges(14, rng.sample(pairs, 20))  # width 14 + 5
    state = run(build_qpe(g, fuse=True))
    path = tmp_path / "state.json"
    with open(path, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            dump_amplitudes(state, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(json.loads(path.read_text())["amplitudes"]) == 1 << 14
    assert peak < 4 << 20  # the 2^19 amplitudes alone are 8 MiB
