from __future__ import annotations

import functools
import io
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qgi.graphs
import qgi.simulator
from qgi import (
    Graph,
    build_oracle,
    build_qpe,
    classical_histogram,
    export_qasm,
    named_graph,
    parse_qasm,
)
from qgi.circuit import Circuit, Gate, ccp, cp, h, plan_precision, swap
from qgi.errors import InputError, InternalCheckError, ResourceLimitError
from qgi.simulator import (
    _compile,
    _peak_bytes,
    _readout,
    apply_gate,
    dump_amplitudes,
    init_state,
    marginal,
    phase_table,
    run,
    sample,
)

from conftest import graphs, random_graph

# Induced edge counts of C4 by subset mask, frozen by hand.
C4_EDGE_COUNTS = [0, 0, 0, 1, 0, 0, 1, 2, 0, 1, 0, 2, 1, 2, 2, 4]


def _basis(n: int, idx: int) -> np.ndarray:
    state = init_state(n)
    state[0] = 0.0
    state[idx] = 1.0
    return state


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return amps.astype(np.complex128)


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
        elif gate.kind in ("cp", "ccp"):
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
    assert len(state).bit_length() - 1 == 3
    assert state.shape == (8,)
    assert state[0] == 1.0 and np.count_nonzero(state) == 1
    assert np.vdot(state, state).real == pytest.approx(1.0)


def test_state_is_its_amplitude_array():
    # init_state and run return the 1-D complex128 array of the 2^w
    # amplitudes, and each call that takes a state reads w from its
    # length, so any other array is refused before it is read.
    c4 = build_qpe(named_graph("c4"))
    for state, w in ((init_state(3), 3), (run(c4), c4.width)):
        assert type(state) is np.ndarray
        assert state.shape == (1 << w,) and state.dtype == np.complex128
    bad = [
        np.zeros((2, 4), dtype=np.complex128),
        np.zeros(6, dtype=np.complex128),
        np.zeros(8),
        np.ones(1, dtype=np.complex128),
        np.zeros(0, dtype=np.complex128),
    ]
    for amps in bad:
        fh = io.StringIO()
        for call in (
            lambda: apply_gate(amps, h(0)),
            lambda: marginal(amps, (0,)),
            lambda: phase_table(amps, math.pi / 4),
            lambda: dump_amplitudes(amps, fh),
        ):
            with pytest.raises(InputError, match="1-D complex128"):
                call()
        assert fh.getvalue() == ""


def test_init_state_caps():
    with pytest.raises(ResourceLimitError):
        init_state(0)
    with pytest.raises(ResourceLimitError):
        init_state(29)


def test_apply_gate_range_check():
    state = init_state(2)
    with pytest.raises(InputError, match="out of range"):
        apply_gate(state, h(2))


def test_apply_gate_refuses_a_read_only_state():
    # apply_gate writes in place, so a read-only state is refused before
    # any write; the calls that only read a state still take it.
    state = run(build_qpe(named_graph("m3")))
    state.flags.writeable = False
    before = state.copy()
    for gate in (h(0), cp(0, 1, 0.5), ccp(0, 1, 2, 0.5), swap(0, 1)):
        with pytest.raises(InputError, match="read-only"):
            apply_gate(state, gate)
        assert np.array_equal(state, before)
    assert marginal(state, (0,)).sum() == pytest.approx(1.0)


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
                cp(qubits[0], qubits[1], turns),
                swap(qubits[0], qubits[1]),
            ]
            + ([ccp(*qubits[:3], turns)] if n >= 3 else [])
        )
        expect = _slow_apply(state, gate)
        got = apply_gate(state, gate)
        assert np.allclose(got, expect, atol=1e-12), gate


def test_h_is_self_inverse():
    rng = np.random.default_rng(5)
    state = _random_state(rng, 4)
    before = state.copy()
    apply_gate(apply_gate(state, h(2)), h(2))
    assert np.allclose(state, before, atol=1e-12)


def test_phase_gate_inverses():
    rng = np.random.default_rng(6)
    state = _random_state(rng, 4)
    before = state.copy()
    for gate, inv in [
        (cp(0, 3, Fraction(1, 4)), cp(3, 0, Fraction(-1, 4))),
        (ccp(0, 1, 2, Fraction(5, 16)), ccp(2, 1, 0, Fraction(-5, 16))),
        (swap(1, 3), swap(1, 3)),
    ]:
        apply_gate(apply_gate(state, gate), inv)
        assert np.allclose(state, before, atol=1e-12), gate.kind


def test_cp_only_touches_both_bits_set():
    state = _basis(3, 0b101)
    apply_gate(state, cp(0, 1, Fraction(1, 4)))
    assert state[0b101] == 1.0  # bit 1 clear: untouched
    apply_gate(state, cp(0, 2, Fraction(1, 4)))
    assert state[0b101] == pytest.approx(np.exp(1j * math.pi / 2))


def test_swap_on_basis_state():
    state = _basis(3, 0b001)
    apply_gate(state, swap(0, 2))
    assert state[0b100] == 1.0
    assert state[0b001] == 0.0


def test_norm_preserved_by_random_circuits():
    rng = np.random.default_rng(77)
    pyrng = random.Random(77)
    state = _random_state(rng, 5)
    for _ in range(60):
        a, b, c = pyrng.sample(range(5), k=3)
        gate = pyrng.choice(
            [h(a), cp(a, b, Fraction(1, 8)),
             ccp(a, b, c, Fraction(3, 4)), swap(a, b)]
        )
        apply_gate(state, gate)
        assert np.vdot(state, state).real == pytest.approx(1.0, abs=1e-12)


# --- full runs ---

def test_run_uniform_superposition():
    circuit = Circuit(n_graph=3, n_est=0, gates=tuple(h(q) for q in range(3)))
    state = run(circuit)
    assert np.allclose(state, np.full(8, 1 / math.sqrt(8)), atol=1e-12)


def test_run_respects_qubit_budget():
    # A QPE circuit one qubit past HARD_MAX_QUBITS (24 vertices, 16
    # edges, t = 5): run refuses it before a single amplitude is
    # allocated, and the read-out, which holds no statevector, reads its
    # histogram.
    g = Graph.from_edges(24, [(i, i + 1) for i in range(16)])
    wide = build_qpe(g, fuse=True)
    assert wide.width == 29
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="28-qubit limit"):
            run(wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    counts = _readout(_compile(wide))[: g.m + 1] * (1 << g.n)
    np.testing.assert_allclose(counts, classical_histogram(g).counts, rtol=0, atol=1e-6)
    assert len(run(build_qpe(named_graph("c4")))).bit_length() - 1 == 7


def test_run_refuses_graph_registers_beyond_a_graph():
    # 25 graph qubits fit the 28-qubit width, but no plane on them is a
    # Graph: refused before any amplitude is allocated.
    wide = Circuit(n_graph=25, n_est=0, gates=tuple(h(q) for q in range(25)))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="24-vertex limit"):
            run(wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
        assert abs(state[s] - expect) < 1e-12, s


# --- compiled run against the gate loop ---

def _gate_loop(circuit: Circuit) -> np.ndarray:
    """The reference: |0...0> and apply_gate for every gate, in order."""
    state = init_state(circuit.width)
    for gate in circuit.gates:
        apply_gate(state, gate)
    return state


def _oracle_circuit(g: Graph, turns: Fraction) -> Circuit:
    """An H on every graph qubit, then the phase oracle at turns."""
    return Circuit(g.n, 0, tuple(h(q) for q in range(g.n)) + build_oracle(g, turns).gates)


@st.composite
def _built(draw, max_n: int = 6):
    """A graph, one circuit that qgi builds from it, and how it was
    built: build_qpe fused or not, or an H layer and the phase oracle
    at dyadic turns of at most 16 bits."""
    g = draw(graphs(max_n=max_n))
    kind = draw(st.sampled_from(["fused", "unfused", "oracle"]))
    if kind == "oracle":
        turns = Fraction(draw(st.integers(0, (1 << 16) - 1)), 1 << 16)
        rebuild = functools.partial(_oracle_circuit, turns=turns)
    else:
        rebuild = functools.partial(build_qpe, fuse=kind == "fused")
    return g, rebuild(g), rebuild


@pytest.mark.parametrize("slice_bits", [qgi.graphs._SLICE_BITS, 2])
@given(built=_built())
def test_compiled_run_matches_gate_loop(slice_bits, built):
    # Slices of 4 graph basis states take the edge counts from the
    # kernel's grid offsets, as graphs on more than 16 vertices do by
    # default.
    _, circuit, _ = built
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qgi.graphs, "_SLICE_BITS", slice_bits)
        amps = run(circuit)
    np.testing.assert_allclose(amps, _gate_loop(circuit), rtol=0, atol=1e-12)


@pytest.mark.parametrize("slice_bits", [qgi.graphs._SLICE_BITS, 2])
@given(built=_built().filter(lambda built: built[1].n_est))
def test_readout_matches_marginal_of_run(slice_bits, built):
    # As above, with slices of 4; every slice's counts add into the one
    # tally.
    _, circuit, _ = built
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qgi.graphs, "_SLICE_BITS", slice_bits)
        probs = _readout(_compile(circuit))
    expect = marginal(_gate_loop(circuit), tuple(range(circuit.n_graph, circuit.width)))
    np.testing.assert_allclose(probs, expect, rtol=0, atol=1e-12)


_NOT_BUILT = "not one that qgi builds"
# New turns for a changed phase: on the 16-bit grid, or off it.
_TURNS = st.one_of(
    st.integers(0, (1 << 16) - 1).map(lambda k: Fraction(k, 1 << 16)),
    st.sampled_from([Fraction(1, 1 << 17), Fraction(1, 3), Fraction(7, 24)]),
)


# Six kinds of change share the examples, so this test draws more.
@settings(max_examples=300)
@given(
    built=_built(),
    change=st.sampled_from(["drop", "duplicate", "move", "phase", "permute", "swap"]),
    data=st.data(),
)
def test_other_circuits_are_refused(built, change, data):
    # Any single-gate change of a circuit that qgi builds is refused,
    # except where it is another such circuit: dropping an edge's only
    # gate leaves the circuit of the graph without that edge.
    g, circuit, rebuild = built
    gates = list(circuit.gates)
    w = circuit.width
    phases = [i for i, gate in enumerate(gates) if gate.turns is not None]
    if change == "drop":
        dropped = gates.pop(data.draw(st.integers(0, len(gates) - 1)))
        edge = dropped.qubits[-2:]
        if dropped.turns is not None and edge in g.edges():
            if all(gate.qubits[-2:] != edge for gate in gates):
                smaller = Graph.from_edges(g.n, set(g.edges()) - {edge})
                assert Circuit(g.n, circuit.n_est, tuple(gates)) == rebuild(smaller)
                return
    elif change == "duplicate":
        gate = gates[data.draw(st.integers(0, len(gates) - 1))]
        gates.insert(data.draw(st.integers(0, len(gates))), gate)
    elif change == "move":
        gate = gates.pop(data.draw(st.integers(0, len(gates) - 1)))
        gates.insert(data.draw(st.integers(0, len(gates))), gate)
    elif change == "phase":
        # The oracle's turns are read off its first phase gate, so an
        # oracle of one edge at other turns is another oracle.
        assume(phases and (circuit.n_est or len(phases) > 1))
        i = data.draw(st.sampled_from(phases))
        turns = data.draw(_TURNS.filter(lambda turns: turns != gates[i].turns))
        gates[i] = Gate(gates[i].kind, gates[i].qubits, turns)
    elif change == "permute":
        gates[:w] = [h(q) for q in data.draw(st.permutations(range(w)))]
    else:
        assume(w >= 2)
        pair = data.draw(st.permutations(range(w)))[:2]
        gates.insert(data.draw(st.integers(0, len(gates))), swap(*pair))
    changed = Circuit(circuit.n_graph, circuit.n_est, tuple(gates))
    assume(changed != circuit)
    with pytest.raises(InputError, match=_NOT_BUILT):
        _compile(changed)
    with pytest.raises(InputError, match=_NOT_BUILT):
        run(changed)


@given(built=_built(max_n=8))
def test_compile_accepts_the_circuits_qgi_builds(built):
    # Each circuit compiles, and so does what parse_qasm re-reads from
    # export_qasm, to the program of its graph.
    g, circuit, _ = built
    if circuit.n_est:
        program = qgi.simulator._qpe_program(g, circuit.n_est)
    else:
        turns = circuit.gates[g.n].turns if g.m else Fraction(0)
        program = qgi.simulator._Program(
            turns.denominator.bit_length() - 1, g, 0, turns.numerator
        )
    assert _compile(circuit) == program
    assert _compile(parse_qasm(export_qasm(circuit))) == program


def test_near_misses_are_refused():
    # A pair of graph and estimation qubits under another estimation
    # qubit; phase estimation without its inverse-QFT tail; the uniform
    # state with an estimation register; an oracle at turns of 17 bits.
    g = named_graph("petersen")
    fused = build_qpe(g, fuse=True)
    for circuit in (
        Circuit(2, 2, tuple(h(q) for q in range(4)) + (ccp(0, 2, 3, Fraction(1, 4)),)),
        Circuit(g.n, 4, fused.gates[: g.n + 4 + g.m * 4]),
        Circuit(n_graph=3, n_est=2, gates=tuple(h(q) for q in range(5))),
        _oracle_circuit(g, Fraction(1, 1 << 17)),
    ):
        with pytest.raises(InputError, match=_NOT_BUILT):
            _compile(circuit)


def test_compiled_run_matches_gate_loop_at_width_18():
    circuit = build_qpe(random_graph(random.Random(413), 13, 0.3), fuse=True)
    assert circuit.width == 18
    np.testing.assert_allclose(run(circuit), _gate_loop(circuit), rtol=0, atol=1e-12)


def test_fused_and_unfused_qpe_compile_alike():
    rng = random.Random(411)
    for g in (named_graph("petersen"), random_graph(rng, 7), random_graph(rng, 8)):
        fused = build_qpe(g, fuse=True)
        unfused = build_qpe(g, fuse=False)
        amps = run(fused)
        np.testing.assert_allclose(run(unfused), amps, rtol=0, atol=1e-12)
        np.testing.assert_allclose(_gate_loop(fused), amps, rtol=0, atol=1e-12)
        np.testing.assert_allclose(_gate_loop(unfused), amps, rtol=0, atol=1e-12)


def _labelled_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for k, e in enumerate(pairs) if (bits >> k) & 1])


def test_qpe_circuits_compile_to_the_plans_program():
    # quantum_histogram reads out _qpe_program(g, t) without building a
    # circuit; the circuit of phase estimation, fused or not, compiles
    # to that program on every graph acceptance criterion 6 reads out.
    graphs = [g for n in range(1, 6) for g in _labelled_graphs(n)]
    assert len(graphs) == 1099
    rng = random.Random(606)
    for _ in range(50):
        n = rng.randint(6, 8)
        graphs.append(
            Graph.from_edges(
                n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            )
        )
    graphs.append(Graph.from_edges(24, itertools.combinations(range(24), 2)))
    graphs.append(Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)]))
    assert graphs[-1].m == 8
    for g in graphs:
        program = qgi.simulator._qpe_program(g, plan_precision(g.m).t)
        for fuse in (True, False):
            assert qgi.simulator._compile(build_qpe(g, fuse=fuse)) == program


def test_qpe_circuits_need_no_gate_loop(monkeypatch):
    # Uniform fill, one phase run and the FFT tail cover every QPE gate.
    applied = []
    monkeypatch.setattr(qgi.simulator, "apply_gate", lambda s, g: applied.append(g))
    rng = random.Random(412)
    for g in (named_graph("c4"), named_graph("petersen"), random_graph(rng, 9)):
        for fuse in (True, False):
            run(build_qpe(g, fuse=fuse))
    assert applied == []


def test_qpe_readout_sweeps_its_graph_once(monkeypatch):
    # Every estimation qubit's units are a multiple of the graph's
    # induced edge counts, swept once by the one slice decomposition,
    # fused or not.
    swept = []
    tables = qgi.graphs._slice_tables

    def recorded(adj, k, *keys):
        swept.append(adj)
        return tables(adj, k, *keys)

    monkeypatch.setattr(qgi.graphs, "_slice_tables", recorded)
    for g in (named_graph("c4"), named_graph("petersen"), random_graph(random.Random(424), 9)):
        for fuse in (True, False):
            swept.clear()
            _readout(_compile(build_qpe(g, fuse=fuse)))
            assert swept == [g.adj]


@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 24])
def test_edgeless_readout_is_exact(n):
    # Every subset of an edgeless graph induces 0 edges, so the general
    # tally is [2^n], all the mass is on outcome 0, and so are all shots.
    g = Graph(n, (0,) * n)
    assert qgi.graphs._edge_tally(g).tolist() == [1 << n]
    circuit = build_qpe(g, fuse=True)
    probs = _readout(_compile(circuit))
    assert probs[0] == pytest.approx(1.0, abs=1e-12) and not probs[1:].any()
    assert sample(probs, 1000, 7).tolist() == [1000] + [0] * (len(probs) - 1)
    if n <= 8:
        expect = marginal(_gate_loop(circuit), tuple(range(n, circuit.width)))
        np.testing.assert_allclose(probs, expect, rtol=0, atol=1e-12)


def test_rows_are_built_once_per_circuit(monkeypatch):
    # 256 slices of 4 graph basis states, and one build of the rows for
    # the read-out and one for the run.
    built = []
    rows = qgi.simulator._rows

    def recorded(program):
        built.append(program)
        return rows(program)

    monkeypatch.setattr(qgi.simulator, "_rows", recorded)
    monkeypatch.setattr(qgi.graphs, "_SLICE_BITS", 2)
    circuit = build_qpe(named_graph("petersen"), fuse=True)
    state = run(circuit)
    np.testing.assert_allclose(
        _readout(_compile(circuit)), marginal(state, tuple(range(10, 14))), rtol=0, atol=1e-12
    )
    assert built == [qgi.simulator._compile(circuit)] * 2


# --- memory admission ---

def test_peak_bytes_counts_amplitudes_and_temporaries():
    # Amplitudes; per estimation value and each of the m + 1 edge
    # counts, a complex row element and its int64 phase index; per
    # subset of a slice, 12 bytes for the kernel and 8 for the row ids;
    # 4 bytes per set of the graph qubits above 16 and line of the
    # 2^8-line grid; 40 bytes per entry of the exp table, one entry per
    # phase unit of the circuit; 16 KiB of objects.
    objects = (4 << 8) + (1 << 14)
    uniform = tuple(h(q) for q in range(5))
    expect = (16 << 5) + 24 + (20 << 5) + 40 + objects
    assert _peak_bytes(_compile(Circuit(n_graph=5, n_est=0, gates=uniform))) == expect
    # C4 has 4 edges, so 5 rows, and t = 3: phases in units of 1/8 turn.
    c4 = named_graph("c4")
    expect = (16 << 7) + (24 * 5 << 3) + (20 << 4) + (40 << 3) + objects
    for fuse in (False, True):
        assert _peak_bytes(_compile(build_qpe(c4, fuse=fuse))) == expect
    # Width 28 is arithmetic alone: 24 vertices and 15 edges, so t = 4.
    rng = random.Random(425)
    pairs = [(i, j) for i in range(24) for j in range(i + 1, 24)]
    wide = build_qpe(Graph.from_edges(24, rng.sample(pairs, 15)), fuse=True)
    assert wide.width == 28
    expect = (16 << 28) + (24 * 16 << 4) + (20 << 16) + (4 << 16) + (40 << 4) + (1 << 14)
    assert _peak_bytes(_compile(wide)) == expect
    # A circuit that run refuses raises as run does: a phase on graph
    # qubit 0 under estimation qubit 3, an H after the leading layer,
    # and 28 graph qubits.
    layer = tuple(h(q) for q in range(28))
    for gate in (cp(0, 27, Fraction(1, 4)), h(3)):
        with pytest.raises(InputError, match=_NOT_BUILT):
            _peak_bytes(_compile(Circuit(n_graph=24, n_est=4, gates=layer + (gate,))))
    with pytest.raises(ResourceLimitError, match="24-vertex limit"):
        _peak_bytes(_compile(Circuit(n_graph=28, n_est=0, gates=layer)))


def test_run_peak_stays_within_peak_bytes():
    # The admission cannot under-count: run's measured peak on QPE
    # circuits of width 19 to 21, fused and not, sparse and dense, stays
    # within _peak_bytes, which over-counts it by at most half.
    rng = random.Random(420)

    def graph(n: int, m: int) -> Graph:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return Graph.from_edges(n, rng.sample(pairs, m))

    circuits = [
        build_qpe(graph(15, 28), fuse=True),
        build_qpe(graph(15, 28)),
        build_qpe(graph(12, 66), fuse=True),
        build_qpe(graph(19, 2), fuse=True),
    ]
    assert [c.width for c in circuits] == [20, 20, 19, 21]
    for circuit in circuits:
        tracemalloc.start()
        try:
            run(circuit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (16 << circuit.width) < peak <= _peak_bytes(_compile(circuit)) <= 1.5 * peak


def test_run_holds_one_slice_of_row_ids():
    # 17 graph qubits, two slices of 2^16: every slice's intp row ids
    # go into one buffer, so beyond the amplitudes run holds 12 B per
    # mask (ids, base and the slice buffer), not a second slice's ids.
    circuit = build_qpe(Graph.from_edges(17, [(0, 16), (3, 9), (5, 12)]), fuse=True)
    assert circuit.width == 19
    tracemalloc.start()
    try:
        run(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - (16 << circuit.width) < 16 << 16


def test_readout_memory_is_one_slice():
    # A 22-vertex graph at width 28: the read-out holds one slice of
    # 2^16 graph basis states and the rows, never the 2^28 amplitudes
    # (4 GiB).
    rng = random.Random(423)
    pairs = [(i, j) for i in range(22) for j in range(i + 1, 22)]
    circuit = build_qpe(Graph.from_edges(22, rng.sample(pairs, 60)), fuse=True)
    assert circuit.width == 28
    tracemalloc.start()
    try:
        probs = _readout(_compile(circuit))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert peak < 32 << 20


def test_run_refuses_beyond_available_memory(monkeypatch):
    qpe = build_qpe(named_graph("petersen"))
    need = _peak_bytes(_compile(qpe))
    monkeypatch.setattr(qgi.simulator, "_mem_available", lambda: need - 1)
    with pytest.raises(ResourceLimitError, match="MiB available"):
        run(qpe)
    monkeypatch.setattr(qgi.simulator, "_mem_available", lambda: need)
    assert len(run(qpe)).bit_length() - 1 == 14
    # Where the available memory cannot be read, nothing is refused.
    monkeypatch.setattr(qgi.simulator, "_mem_available", lambda: None)
    assert len(run(qpe)).bit_length() - 1 == 14


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
    probs = _readout(_compile(build_qpe(named_graph("m3"))))
    a = sample(probs, shots=2000, seed=42)
    b = sample(probs, shots=2000, seed=42)
    c = sample(probs, shots=2000, seed=43)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()


# Tallies of sample(m3 read-out, shots, seed 42), frozen for each shot count.
M3_TALLIES = {
    262144: [130596, 82325, 32913, 16310],
    2000: [974, 667, 243, 116],
    7: [5, 1, 0, 1],
}


@pytest.mark.parametrize("shots", list(M3_TALLIES))
def test_sample_chunks_draw_one_stream(shots):
    # Every shot count is one multinomial draw from the seed's one stream.
    probs = _readout(_compile(build_qpe(named_graph("m3"))))
    assert sample(probs, shots=shots, seed=42).tolist() == M3_TALLIES[shots]


def test_sample_memory_stays_one_chunk():
    probs = _readout(_compile(build_qpe(named_graph("m3"))))
    tracemalloc.start()
    try:
        counts = sample(probs, shots=10**7, seed=5)
        # The most shots one multinomial draw takes, in the same memory.
        most = sample(probs, shots=(1 << 63) - 1, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 10**7
    assert most.sum() == (1 << 63) - 1
    assert peak < 32 << 20


def test_sample_five_sigma():
    probs = _readout(_compile(build_qpe(named_graph("m3"))))
    shots = 100_000
    counts = sample(probs, shots=shots, seed=7)
    assert counts.sum() == shots
    for outcome, prob in enumerate([0.5, 0.3125, 0.125, 0.0625]):
        sigma = math.sqrt(shots * prob * (1 - prob))
        assert abs(counts[outcome] - shots * prob) <= 5 * sigma


def test_sample_six_sigma_on_512_outcomes():
    # 2^9 outcomes, as K24's read-out has (t = 9), under the bound the
    # benchmark's shot check uses: 6 sigma + 1 of shots * p.
    rng = np.random.default_rng(9)
    probs = rng.random(512) ** 4 * (rng.random(512) < 0.7)
    probs /= probs.sum()
    shots = 1_000_000
    counts = sample(probs, shots=shots, seed=11)
    assert counts.sum() == shots
    sigma = np.sqrt(shots * probs * (1 - probs))
    assert (np.abs(counts - shots * probs) <= 6 * sigma + 1).all()


def test_sample_rejects_bad_shots():
    with pytest.raises(InputError):
        sample(np.array([1.0]), shots=0, seed=0)
    with pytest.raises(InputError, match="below 2"):
        sample(np.array([1.0]), shots=1 << 63, seed=0)
    # A fractional shot count or seed is refused, not truncated.
    with pytest.raises(InputError, match="integers"):
        sample(np.array([1.0]), shots=1.5, seed=0)
    with pytest.raises(InputError, match="integers"):
        sample(np.array([1.0]), shots=10, seed=0.5)


@pytest.mark.parametrize(
    ("probs", "error"),
    [
        ([0.5, math.nan, 0.5], InputError),
        ([1.5, -0.5], InputError),
        ([math.inf, 0.0], InputError),
        ([], InputError),
        ([0.5, 0.25], InternalCheckError),
        ([[0.5, 0.5]], InputError),
    ],
)
def test_sample_rejects_bad_probabilities(probs, error):
    with pytest.raises(error):
        sample(probs, 1000, 0)


@given(
    kind=st.sampled_from(["random", "grid", "point"]),
    size=st.integers(1, 1 << 14),
    shape_seed=st.integers(0, 1 << 32),
    shots=st.one_of(st.integers(1, 500), st.integers(1, (1 << 63) - 1)),
    seed=st.integers(0, 1 << 32),
)
@example(kind="grid", size=3, shape_seed=0, shots=1, seed=0)
@example(kind="point", size=1 << 14, shape_seed=1, shots=1, seed=2)
@example(kind="random", size=8, shape_seed=5, shots=(1 << 63) - 1, seed=0)
def test_sample_counts_are_exact(kind, size, shape_seed, shots, seed):
    # "grid" puts every probability on a multiple of 1/4096, most of them
    # 0 at large sizes; "point" gives one outcome all the mass.  At huge
    # shot counts a draw over every outcome would hand the rounding
    # remainder of the probabilities to a last outcome of probability 0.
    rng = np.random.default_rng(shape_seed)
    if kind == "random":
        probs = rng.random(size) ** 4 * (rng.random(size) < 0.7)
        probs[rng.integers(size)] += 1e-3
        probs /= probs.sum()
    elif kind == "grid":
        probs = rng.multinomial(4096, np.full(size, 1 / size)) / 4096
    else:
        probs = np.zeros(size)
        probs[rng.integers(size)] = 1.0
    counts = sample(probs, shots, seed)
    assert counts.dtype == np.int64 and len(counts) == size
    assert counts.sum() == shots
    assert not counts[probs == 0].any()
    assert sample(probs, shots, seed).tolist() == counts.tolist()


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
    state[0] = 0.0
    state[1] = np.exp(1j * (math.tau - 1e-8))
    assert phase_table(state, math.pi / 4) == {1: 0}


def test_phase_table_rejects_off_grid_phase():
    state = init_state(1)
    state[1] = np.exp(1j * 0.1)
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
    state[5] = complex(0.0, -0.25)
    state[6] = 1e-13  # rounding residue, not data
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
