from __future__ import annotations

import hashlib
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import graphs, random_graph
from hypothesis import assume, given
from hypothesis import strategies as st

import qgi.circuit
from qgi import (
    Circuit,
    Gate,
    Graph,
    InputError,
    ResourceLimitError,
    build_oracle,
    build_qpe,
    classical_histogram,
    export_qasm,
    induced_edge_count,
    named_graph,
    parse_edge_list,
    parse_qasm,
    plan_precision,
    run,
)
from qgi.circuit import _inverse_qft_at, ccp, cp, h, swap
from qgi.simulator import _compile, _readout, apply_gate, init_state


def _apply_gates(n_qubits: int, gates, start=None):
    state = init_state(n_qubits)
    if start is not None:
        state[:] = start
    for g in gates:
        apply_gate(state, g)
    return state


def _oracle(g: Graph, turns: Fraction) -> Circuit:
    """An H on every graph qubit, then the phase oracle at turns."""
    return Circuit(g.n, 0, tuple(h(q) for q in range(g.n)) + build_oracle(g, turns).gates)


# --- precision plan ---

def test_plan_precision_examples():
    plan = plan_precision(4)
    assert (plan.t, plan.theta_turns, plan.oracle_calls) == (3, Fraction(1, 8), 7)
    assert plan.theta == pytest.approx(math.pi / 4)
    assert plan_precision(15).t == 4
    assert plan_precision(16).t == 5
    assert plan_precision(1).t == 1
    assert plan_precision(1).theta == pytest.approx(math.pi)
    # power-of-two edge counts get the extra bit
    assert plan_precision(8).t == 4
    assert plan_precision(0).t == 1


def test_plan_precision_phase_fits():
    for m in range(1, 400):
        plan = plan_precision(m)
        assert plan.theta * m < math.tau
        assert plan.oracle_calls == (1 << plan.t) - 1


def test_plan_precision_rejects_negative():
    with pytest.raises(InputError):
        plan_precision(-1)


# --- gates and circuits ---

def test_gate_validation():
    with pytest.raises(InputError, match="distinct"):
        cp(1, 1, Fraction(1, 4))
    with pytest.raises(InputError, match="unknown gate"):
        Gate("cz", (0, 1))
    with pytest.raises(InputError, match="no phase"):
        Gate("h", (0,), Fraction(1, 2))
    with pytest.raises(InputError, match="requires a phase"):
        Gate("cp", (0, 1))
    for kind, qubits in (("cp", (0, 1)), ("ccp", (0, 1, 2))):
        for turns in (Fraction(1), 1, Fraction(-1, 2), 0.5, None):
            with pytest.raises(InputError):
                Gate(kind, qubits, turns)
    # constructors normalize turns into [0, 1)
    assert cp(0, 1, Fraction(-1, 4)).turns == Fraction(3, 4)
    assert ccp(0, 1, 2, Fraction(9, 8)).turns == Fraction(1, 8)


@pytest.mark.parametrize(
    "kind, qubits, turns, message",
    [
        ("cz", (0, 1), None, "unknown gate kind 'cz'"),
        ("cp", (0,), Fraction(1, 4), "cp expects 2 qubits"),
        ("ccp", (0, 2, 0), Fraction(1, 4), "ccp qubits must be distinct: (0, 2, 0)"),
        ("h", (-1,), None, "negative qubit index in (-1,)"),
        ("cp", (0, 1), None, "cp requires a phase"),
        ("cp", (0, 1), 0.5, "phase 0.5 is not a Fraction in [0, 1) turns"),
        ("ccp", (0, 1, 2), Fraction(1), "phase Fraction(1, 1) is not a Fraction in [0, 1) turns"),
        ("swap", (0, 1), Fraction(1, 2), "swap takes no phase"),
    ],
)
def test_gate_rejection_messages(kind, qubits, turns, message):
    with pytest.raises(InputError) as err:
        Gate(kind, qubits, turns)
    assert str(err.value) == message


def test_single_qubit_phase_is_no_gate():
    # No part of the paper's circuit is a phase on one qubit.
    with pytest.raises(InputError, match="unknown gate kind 'p'"):
        Gate("p", (0,), Fraction(1, 4))


def test_circuit_validation():
    with pytest.raises(InputError, match="width"):
        Circuit(n_graph=2, n_est=0, gates=(h(2),))


def test_width_check_reaches_repeated_gates():
    # Each distinct gate object is checked once: a bad gate met only
    # through repeated references is still found, and the first bad gate
    # in circuit order is the one named.
    bad = ccp(0, 1, 5, Fraction(1, 4))
    with pytest.raises(InputError, match=re.escape("gate ccp on (0, 1, 5) exceeds width 5")):
        Circuit(n_graph=3, n_est=2, gates=(h(0), bad) * 3)
    power = (cp(0, 1, Fraction(1, 8)), h(2))
    later = tuple(h(q) for q in range(7, 15))
    with pytest.raises(InputError, match=re.escape("gate swap on (3, 6) exceeds width 6")):
        Circuit(n_graph=4, n_est=2, gates=power * 4 + (swap(3, 6),) + later + power * 2)
    ok = Circuit(n_graph=4, n_est=2, gates=power * 4 + (swap(4, 5),))
    assert len(ok.gates) == 9


# --- oracle ---

def test_build_oracle_c4():
    c4 = named_graph("c4")
    oracle = build_oracle(c4, Fraction(1, 8))
    assert oracle.width == 4 and oracle.n_est == 0
    assert [g.kind for g in oracle.gates] == ["cp"] * 4
    assert [g.qubits for g in oracle.gates] == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert all(g.turns == Fraction(1, 8) for g in oracle.gates)


def test_build_oracle_empty():
    assert build_oracle(parse_edge_list("3;"), Fraction(1, 2)).gates == ()


def test_oracle_is_diagonal_with_edge_count_phases():
    rng = random.Random(424)
    for _ in range(12):
        n = rng.randint(2, 6)
        g = random_graph(rng, n)
        plan = plan_precision(max(g.m, 1))
        oracle = build_oracle(g, plan.theta_turns)
        for s in range(1 << n):
            start = np.zeros(1 << n, dtype=np.complex128)
            start[s] = 1.0
            out = _apply_gates(n, oracle.gates, start)
            expect = np.exp(1j * plan.theta * induced_edge_count(g, s))
            assert abs(out[s] - expect) < 1e-12
            assert np.count_nonzero(out) == 1


def test_oracle_gate_order_is_immaterial():
    rng = random.Random(11)
    g = named_graph("petersen")
    oracle = build_oracle(g, Fraction(1, 16))
    start = np.exp(2j * np.pi * np.linspace(0.0, 0.7, 1 << g.n))
    start /= np.linalg.norm(start)
    reference = _apply_gates(g.n, oracle.gates, start)
    for _ in range(5):
        shuffled = list(oracle.gates)
        rng.shuffle(shuffled)
        assert np.array_equal(_apply_gates(g.n, shuffled, start), reference)


# --- QPE assembly ---

def test_build_qpe_c4_shape():
    qpe = build_qpe(named_graph("c4"), fuse=True)
    assert (qpe.n_graph, qpe.n_est, qpe.width) == (4, 3, 7)
    ccps = [g for g in qpe.gates if g.kind == "ccp"]
    assert len(ccps) == 12  # 3 estimation qubits x 4 edges, fused
    unfused = build_qpe(named_graph("c4"), fuse=False)
    assert len([g for g in unfused.gates if g.kind == "ccp"]) == 28  # (2^3 - 1) x 4


def test_build_qpe_fused_phase_doubling():
    qpe = build_qpe(named_graph("c4"), fuse=True)
    by_ctrl = {}
    for g in qpe.gates:
        if g.kind == "ccp":
            by_ctrl.setdefault(g.qubits[0], set()).add(g.turns)
    assert by_ctrl == {
        4: {Fraction(1, 8)},
        5: {Fraction(1, 4)},
        6: {Fraction(1, 2)},
    }


def test_build_qpe_petersen_shape():
    g = named_graph("petersen")
    qpe = build_qpe(g)
    assert qpe.width == 14 and qpe.n_est == 4
    assert plan_precision(g.m).oracle_calls == 15
    assert len([x for x in qpe.gates if x.kind == "ccp"]) == 15 * 15


def test_build_qpe_has_no_width_cap():
    # Building allocates no amplitudes: the 24-vertex path (m = 23,
    # t = 5, width 29) builds and reads out, and only `run`, which would
    # hold 2^29 amplitudes, refuses it before allocating.
    g = parse_edge_list("24; " + "; ".join(f"{i} {i+1}" for i in range(23)))
    circuit = build_qpe(g)
    assert circuit.width == 29
    counts = np.rint(_readout(_compile(circuit)) * (1 << g.n)).astype(np.int64)
    assert tuple(counts[: g.m + 1].tolist()) == classical_histogram(g).counts
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="28-qubit limit"):
            run(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- QFT ---

def test_inverse_qft_smallest_cases():
    assert [g.kind for g in _inverse_qft_at(1, 0)] == ["h"]
    gates = _inverse_qft_at(2, 0)
    assert [g.kind for g in gates] == ["swap", "h", "cp", "h"]
    assert gates[0].qubits == (0, 1)
    assert gates[2].turns == Fraction(3, 4)  # -pi/2 normalized


def _dft_matrix(t: int) -> np.ndarray:
    size = 1 << t
    k, x = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    return np.exp(2j * np.pi * k * x / size) / math.sqrt(size)


def test_inverse_qft_matches_dft_adjoint():
    # LSB-first in and out, so the gates realise the adjoint of the
    # unitary DFT matrix itself, with no bit reversal left over.
    for t in (1, 2, 3, 4, 5):
        size = 1 << t
        adjoint = _dft_matrix(t).conj().T
        for x in range(size):
            start = np.zeros(size, dtype=np.complex128)
            start[x] = 1.0
            out = _apply_gates(t, _inverse_qft_at(t, 0), start)
            assert np.allclose(out, adjoint[:, x], atol=1e-12)


def test_qft_rejects_empty_register():
    with pytest.raises(InputError):
        _inverse_qft_at(0, 0)


# --- QASM export / import ---

def test_export_qasm_oracle_golden():
    oracle = build_oracle(named_graph("c4"), Fraction(1, 8))
    text = export_qasm(oracle)
    assert text == (
        "OPENQASM 3.0;\n"
        'include "stdgates.inc";\n'
        "qubit[4] g;\n"
        "cp(0.785398163397) g[0], g[1];\n"
        "cp(0.785398163397) g[0], g[3];\n"
        "cp(0.785398163397) g[1], g[2];\n"
        "cp(0.785398163397) g[2], g[3];\n"
    )


def _module_state(module) -> dict:
    """Each global of module, with the size of a container or a cache."""
    state = {}
    for name, value in vars(module).items():
        size = len(value) if isinstance(value, (dict, list, set)) else None
        if hasattr(value, "cache_info"):
            size = value.cache_info().currsize
        state[name] = (id(value), size)
    return state


def test_export_qasm_deterministic():
    qpe = build_qpe(named_graph("petersen"))
    before = _module_state(qgi.circuit)
    assert export_qasm(qpe) == export_qasm(qpe)
    assert export_qasm(qpe, decompose_ccp=True) == export_qasm(qpe, decompose_ccp=True)
    assert _module_state(qgi.circuit) == before


def _seeded_n16() -> Graph:
    pairs = [(i, j) for i in range(16) for j in range(i + 1, 16)]
    return Graph.from_edges(16, random.Random(16).sample(pairs, 40))


# sha256 of the exported text, frozen: a change to any byte `encode`
# writes shows here.
@pytest.mark.parametrize(
    ("graph", "fuse", "decompose", "digest"),
    [
        ("petersen", True, False,
         "8424e72e55db05c5ff06b41fa19c59ef31d7c7ed53b2e2193df380782bb9dd88"),
        ("petersen", False, False,
         "d4caf98ff27f8a1b1e3cf530219bfaf622539130081bfdc3265e505dde7e6cda"),
        ("petersen", False, True,
         "b8587871455e9cbd197add8da91372875361711caf5e4340347a5af80db7f97f"),
        ("n16", False, False,
         "249ee4156f09a6fac17089a844c4c322c86c1a6dda7e459029bb99339ae21d86"),
    ],
)
def test_export_qasm_text_is_pinned(graph, fuse, decompose, digest):
    g = _seeded_n16() if graph == "n16" else named_graph(graph)
    text = export_qasm(build_qpe(g, fuse=fuse), decompose_ccp=decompose)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("decompose", [False, True])
def test_export_qasm_renders_repeated_gates_as_each_alone(decompose):
    # The unfused circuit repeats each oracle power's gate objects 2^j
    # times; the export equals that of a copy in which every gate is an
    # object of its own, and the header and measurements are whatever
    # the gate-free circuit exports.
    rng = random.Random(426)
    for g in (named_graph("c4"), named_graph("petersen"), random_graph(rng, 8)):
        circuit = build_qpe(g, fuse=False)
        fresh = tuple(Gate(gate.kind, gate.qubits, gate.turns) for gate in circuit.gates)
        assert len({id(gate) for gate in circuit.gates}) < len(fresh)
        empty = export_qasm(Circuit(circuit.n_graph, circuit.n_est, ())).splitlines()
        head, meas = empty[:5], empty[5:]
        assert len(meas) == circuit.n_est
        lines = []
        for gate in fresh:
            one = export_qasm(Circuit(circuit.n_graph, circuit.n_est, (gate,)),
                              decompose_ccp=decompose).splitlines()
            lines += one[len(head) : len(one) - len(meas)]
        expect = "\n".join(head + lines + meas) + "\n"
        assert export_qasm(circuit, decompose_ccp=decompose) == expect
        assert export_qasm(Circuit(circuit.n_graph, circuit.n_est, fresh),
                           decompose_ccp=decompose) == expect


def test_qasm_roundtrip():
    for graph in ("c4", "m3", "petersen"):
        for fuse in (False, True):
            circuit = build_qpe(named_graph(graph), fuse=fuse)
            assert parse_qasm(export_qasm(circuit)) == circuit
    oracle = _oracle(named_graph("g1"), Fraction(1, 16))
    assert parse_qasm(export_qasm(oracle)) == oracle


@pytest.mark.parametrize("fuse", [False, True])
@given(g=graphs(max_n=7))
def test_qasm_round_trip_reads_the_histogram(fuse, g):
    circuit = build_qpe(g, fuse=fuse)
    again = parse_qasm(export_qasm(circuit))
    assert again == circuit
    # The re-read circuit takes the simulator's one path.
    scaled = _readout(_compile(again)) * (1 << g.n)
    np.testing.assert_allclose(scaled[: g.m + 1], classical_histogram(g).counts, rtol=0, atol=1e-6)
    assert not scaled[g.m + 1 :].any()


def test_qasm_decomposed_ccp_is_one_way():
    circuit = build_qpe(named_graph("c4"), fuse=True)
    text = export_qasm(circuit, decompose_ccp=True)
    assert "ctrl @" not in text
    assert "cx " in text
    with pytest.raises(InputError):
        parse_qasm(text)


def _gate_matrix_3q(line_gates) -> np.ndarray:
    """Dense 8x8 matrix of a gate list on qubits (0,1,2), little-endian."""
    mat = np.eye(8, dtype=np.complex128)
    for kind, qubits, angle in line_gates:
        full = np.zeros((8, 8), dtype=np.complex128)
        for idx in range(8):
            bits = [(idx >> q) & 1 for q in range(3)]
            if kind == "cp":
                a, b = qubits
                phase = np.exp(1j * angle) if bits[a] and bits[b] else 1.0
                full[idx, idx] = phase
            elif kind == "cx":
                a, b = qubits
                out = idx ^ (1 << b) if bits[a] else idx
                full[out, idx] = 1.0
        mat = full @ mat
    return mat


def test_ccp_decomposition_matrix_identity():
    # cp(phi/2) b,c ; cx a,b ; cp(-phi/2) b,c ; cx a,b ; cp(phi/2) a,c == ccp(phi) a,b,c
    phi = math.pi / 4
    seq = [
        ("cp", (1, 2), phi / 2),
        ("cx", (0, 1), None),
        ("cp", (1, 2), -phi / 2),
        ("cx", (0, 1), None),
        ("cp", (0, 2), phi / 2),
    ]
    got = _gate_matrix_3q(seq)
    want = np.eye(8, dtype=np.complex128)
    want[7, 7] = np.exp(1j * phi)
    assert np.allclose(got, want, atol=1e-12)


def test_exported_decomposition_matches_its_ccp():
    # the emitted five-line pattern must implement exactly ctrl @ cp
    circuit = Circuit(n_graph=3, n_est=0, gates=(ccp(0, 1, 2, Fraction(1, 8)),))
    text = export_qasm(circuit, decompose_ccp=True)
    seq = []
    for line in text.splitlines():
        if line.startswith("cp("):
            angle = float(line[3 : line.index(")")])
            qs = tuple(int(tok[2]) for tok in line.split() if tok.startswith("g["))
            seq.append(("cp", qs, angle))
        elif line.startswith("cx "):
            qs = tuple(int(tok[2]) for tok in line.split() if tok.startswith("g["))
            seq.append(("cx", qs, None))
    assert len(seq) == 5
    got = _gate_matrix_3q(seq)
    want = np.eye(8, dtype=np.complex128)
    want[7, 7] = np.exp(1j * math.tau / 8)
    assert np.allclose(got, want, atol=1e-9)


def _refused(*texts: str) -> None:
    for text in texts:
        with pytest.raises(InputError):
            parse_qasm(text)


def test_parse_qasm_errors():
    # No header, a gate export_qasm has no spelling for, an operand
    # outside its register, a register declared twice, a single-qubit
    # phase.
    head = "OPENQASM 3.0;\nqubit[2] g;\n"
    _refused(
        "h q[0];",
        head + "cz g[0], g[1];",
        "OPENQASM 3.0;\nqubit[1] g;\nh g[3];",
        *(f"OPENQASM 3.0;\nqubit[2] g;\nqubit[1] e;\nh e[0];\nqubit[3] {reg};" for reg in "ge"),
        head + "bit[1] meas;\nbit[5] meas;",
        head + "p(0.785398163397) g[0];",
    )


@pytest.mark.parametrize(
    "line", ["includes are ignored here h g[0];", 'include "other.inc";']
)
def test_parse_qasm_skips_only_the_include_export_qasm_writes(line):
    # A graph register with no H layer is no circuit that qgi builds.
    _refused(
        f"OPENQASM 3.0;\n{line}\nqubit[1] g;",
        'OPENQASM 3.0;\ninclude "stdgates.inc";\nqubit[1] g;',
    )
    text = 'OPENQASM 3.0;\ninclude "stdgates.inc";\nqubit[1] g;\nh g[0];'
    assert parse_qasm(text) == Circuit(1, 0, (h(0),))
    _refused(text.replace("stdgates", "other"))


def test_parse_qasm_refuses_declarations_after_gates():
    _refused(
        "OPENQASM 3.0;\nqubit[1] e;\nh e[0];\nqubit[2] g;",
        "OPENQASM 3.0;\nh g[1];\nqubit[2] g;",
        "OPENQASM 3.0;\nh e[1];\nqubit[2] g;\nqubit[1] e;",
    )


_HALF_TURN = "3.14159265359"  # export_qasm's spelling of Fraction(1, 2)


# Each statement is one that export_qasm never writes, for the reason
# given.
@pytest.mark.parametrize(
    ("statement", "message"),
    [
        (f"h({_HALF_TURN}) g[0];", "h takes no phase"),
        (f"swap({_HALF_TURN}) g[0], g[1];", "swap takes no phase"),
        ("cp g[0], g[1];", "cp requires a phase"),
        ("swap g[0];", "swap expects 2 qubits"),
        (f"ctrl @ cp({_HALF_TURN}) g[0], g[1];", "ccp expects 3 qubits"),
        (f"cp({_HALF_TURN}) g[0], g[0];", "qubits must be distinct"),
        ("h(0.5) g[0];", "not a recognized dyadic"),
        ("ctrl @ cp(0.5) g[0], g[1];", "not a recognized dyadic"),
    ],
)
def test_parse_qasm_checks_each_statement_as_a_gate(statement, message):
    # Alone, and after the export of the oracle of one edge.
    edge = export_qasm(_oracle(Graph.from_edges(2, [(0, 1)]), Fraction(1, 2)))
    _refused("OPENQASM 3.0;\nqubit[2] g;\n" + statement, edge + statement)


def test_parse_qasm_reads_only_the_estimation_register_measured():
    # Each measurement section stands alone after gate-free registers,
    # and in place of its own in the export of the 3-vertex path (t = 2),
    # where only export_qasm's own section is read back.
    head = "OPENQASM 3.0;\nqubit[2] g;\nqubit[2] e;\n"
    full = "bit[2] meas;\nmeas[0] = measure e[0];\nmeas[1] = measure e[1];"
    sections = (
        "",
        "bit[1] meas;\nmeas[0] = measure g[0];",
        "bit[2] meas;",  # declared, nothing measured
        "meas[0] = measure e[0];\nmeas[1] = measure e[1];",  # no bit register
        "bit[2] meas;\nmeas[0] = measure e[0];",  # e[1] unread
        "bit[1] meas;\nmeas[0] = measure e[0];",  # a partial register
        "bit[2] meas;\nmeas[0] = measure e[1];\nmeas[1] = measure e[0];",  # reversed
        "bit[3] meas;\nmeas[0] = measure e[0];\nmeas[1] = measure e[1];",
        full + "\nmeas[1] = measure e[1];",  # measured twice
    )
    _refused(head + full, *(head + section for section in sections))
    _refused("OPENQASM 3.0;\nqubit[2] g;\nbit[0] meas;")
    path = build_qpe(parse_edge_list("3; 0 1; 1 2"))
    gates = [line for line in export_qasm(path).splitlines() if "meas" not in line]

    def measured(section: str) -> str:
        # Declarations after the registers, measurements after the gates.
        lines = section.splitlines()
        bits = [line for line in lines if line.startswith("bit")]
        rest = [line for line in lines if not line.startswith("bit")]
        return "\n".join(gates[:4] + bits + gates[4:] + rest)

    assert parse_qasm(measured(full)) == path
    _refused(*map(measured, sections))


@pytest.mark.parametrize("literal", ["nan", "inf", "-inf", "1e999"])
def test_parse_qasm_rejects_non_finite_angles(literal):
    oracle = export_qasm(_oracle(named_graph("c4"), Fraction(1, 8)))
    _refused(
        f"OPENQASM 3.0;\nqubit[2] g;\ncp({literal}) g[0], g[1];",
        oracle.replace("cp(0.785398163397)", f"cp({literal})"),
    )


def test_parse_qasm_rejects_overlong_numbers():
    _refused(
        "OPENQASM 3.0;\nqubit[" + "9" * 5000 + "] g;",
        "OPENQASM 3.0;\nqubit[2] g;\nh g[0];\nh g[" + "9" * 5000 + "];",
    )


@st.composite
def _built_and_changed(draw):
    """A circuit of qgi.circuit._built for a graph of at most 7
    vertices, its export's lines, and those lines with one line dropped,
    duplicated or swapped with another, or one digit changed."""
    g = draw(graphs(max_n=7))
    if draw(st.booleans()):
        turns = Fraction(draw(st.integers(0, (1 << 16) - 1)), 1 << 16)
        built = list(qgi.circuit._built(g, 0, turns))
    else:
        built = list(qgi.circuit._built(g, plan_precision(g.m).t, Fraction(0)))
    circuit = draw(st.sampled_from(built))
    lines = export_qasm(circuit).splitlines()
    changed = list(lines)
    i = draw(st.integers(0, len(lines) - 1))
    change = draw(st.sampled_from(["drop", "duplicate", "swap", "digit"]))
    if change == "drop":
        del changed[i]
    elif change == "duplicate":
        changed.insert(draw(st.integers(0, len(lines))), lines[i])
    elif change == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        changed[i], changed[j] = changed[j], changed[i]
    else:
        at = [(k, c) for k, line in enumerate(lines) for c, ch in enumerate(line) if ch.isdigit()]
        k, c = draw(st.sampled_from(at))
        digit = draw(st.sampled_from("0123456789").filter(lambda d: d != lines[k][c]))
        changed[k] = lines[k][:c] + digit + lines[k][c + 1 :]
    return built, circuit, changed


@given(case=_built_and_changed())
def test_parse_qasm_reads_back_only_the_circuits_qgi_builds(case):
    built, circuit, changed = case
    for c in built:
        assert parse_qasm(export_qasm(c)) == c
    # Comments, blank lines and the whitespace around a line are dropped.
    lines = export_qasm(circuit).splitlines()
    noted = "// qgi\n\n" + "\n".join(f"  {line} // {k}" for k, line in enumerate(lines))
    assert parse_qasm(noted) == circuit
    assume(changed != lines)
    try:
        again = parse_qasm("\n".join(changed))
    except InputError:
        return
    # The one exception is another such circuit's export: dropping the
    # line of an oracle's edge gives the oracle of the graph without it.
    assert again != circuit
    assert export_qasm(again).splitlines() == changed
def test_parse_qasm_refuses_each_line_edit():
    # Every line of two small exports dropped, doubled or swapped with
    # the next: only dropping one of the oracle's edge lines gives
    # another export, the oracle of c4 without that edge.
    path = build_qpe(parse_edge_list("3; 0 1; 1 2"))
    for circuit in (path, _oracle(named_graph("c4"), Fraction(1, 8))):
        lines = export_qasm(circuit).splitlines()
        for i, line in enumerate(lines):
            edits = [lines[:i] + lines[i + 1 :], lines[:i] + [line] + lines[i:]]
            edits.append(lines[:i] + lines[i + 1 : i + 2] + [line] + lines[i + 2 :])
            for edit in edits:
                if edit == lines:
                    continue
                if edit == edits[0] and line.startswith("cp(") and not circuit.n_est:
                    assert export_qasm(parse_qasm("\n".join(edit))).splitlines() == edit
                else:
                    _refused("\n".join(edit))


# Statements shaped like export_qasm's: a template and the kind of each
# field in it (a: angle, i: index, r: register).
_QASM_STATEMENTS = (
    ("qubit[{}] {};", "ir"),
    ("bit[{}] meas;", "i"),
    ("h {}[{}];", "ri"),
    ("cp({}) {}[{}], {}[{}];", "ariri"),
    ("ctrl @ cp({}) {}[{}], {}[{}], {}[{}];", "aririri"),
    ("swap {}[{}], {}[{}];", "riri"),
    ("meas[{}] = measure {}[{}];", "iri"),
    # Spellings export_qasm never writes, which Gate refuses: a phase on
    # h or swap, cp without one, one operand too many or too few.
    ("h({}) {}[{}];", "ari"),
    ("swap({}) {}[{}], {}[{}];", "ariri"),
    ("cp {}[{}], {}[{}];", "riri"),
    ("h {}[{}], {}[{}];", "riri"),
    ("cp({}) {}[{}];", "ari"),
    ("ctrl @ cp({}) {}[{}], {}[{}];", "ariri"),
    ("swap {}[{}], {}[{}], {}[{}];", "ririri"),
)
_QASM_FIELDS = {
    "a": st.one_of(
        st.floats().map(repr),
        st.sampled_from(["nan", "inf", "-inf", "1e999", "pi", "", "0", _HALF_TURN]),
        st.text(max_size=8),
    ),
    "i": st.one_of(st.integers(0, 3).map(str), st.from_regex(r"[0-9]{1,12}", fullmatch=True)),
    "r": st.sampled_from("geq"),
}


@st.composite
def _qasm_text(draw) -> str:
    """A QASM header, then statements of export_qasm's shape with
    arbitrary fields, mixed with arbitrary lines."""
    lines = ["OPENQASM 3.0;"]
    # Mostly declared registers, so that statements reach their fields.
    for reg in "ge":
        if draw(st.integers(0, 3)):
            lines.append(f"qubit[{draw(st.integers(1, 3))}] {reg};")
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.text(max_size=30)))
        else:
            template, kinds = draw(st.sampled_from(_QASM_STATEMENTS))
            lines.append(template.format(*(draw(_QASM_FIELDS[k]) for k in kinds)))
    return "\n".join(lines)


@given(st.one_of(st.text(), _qasm_text()))
def test_parse_qasm_raises_only_input_error(text):
    try:
        circuit = parse_qasm(text)
    except InputError:
        return
    assert isinstance(circuit, Circuit)
    # A measurement, if any, reads the whole estimation register.
    lines = [raw.split("//", 1)[0].strip() for raw in text.splitlines()]
    declared = [
        int(mt.group(1)) for ln in lines if (mt := re.fullmatch(r"bit\[(\d+)\] meas;", ln))
    ]
    measured = [ln for ln in lines if ln.startswith("meas[")]
    assert declared == ([circuit.n_est] if measured else [])
    assert len(measured) == (circuit.n_est if declared else 0)


def test_measurement_roundtrip_order():
    # The 3-vertex path has m = 2, so t = 2: the QASM measures e[0] and
    # e[1], the register that _readout's marginal is over.
    circuit = build_qpe(parse_edge_list("3; 0 1; 1 2"))
    text = export_qasm(circuit)
    assert "bit[2] meas;\n" in text
    assert text.endswith("meas[0] = measure e[0];\nmeas[1] = measure e[1];\n")
    assert parse_qasm(text) == circuit
    probs = _readout(_compile(circuit))
    assert probs.tolist() == pytest.approx([0.625, 0.25, 0.125, 0.0], abs=1e-12)
