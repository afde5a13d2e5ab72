from __future__ import annotations

import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import graphs, random_graph
from hypothesis import given
from hypothesis import strategies as st

from qgi import (
    Circuit,
    Gate,
    InputError,
    ResourceLimitError,
    build_oracle,
    build_qpe,
    classical_histogram,
    export_qasm,
    induced_edge_count,
    inverse_qft,
    named_graph,
    parse_edge_list,
    parse_qasm,
    plan_precision,
    readout,
    run,
)
from qgi.circuit import ccp, cp, h
from qgi.simulator import apply_gate, init_state


def _apply_gates(n_qubits: int, gates, start=None):
    state = init_state(n_qubits)
    if start is not None:
        state.amps[:] = start
    for g in gates:
        apply_gate(state, g)
    return state.amps


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
    # constructors normalize turns into [0, 1)
    assert cp(0, 1, Fraction(-1, 4)).turns == Fraction(3, 4)
    assert ccp(0, 1, 2, Fraction(9, 8)).turns == Fraction(1, 8)


def test_circuit_validation():
    with pytest.raises(InputError, match="width"):
        Circuit(n_graph=2, n_est=0, gates=(h(2),))
    with pytest.raises(InputError, match="duplicate"):
        Circuit(n_graph=2, n_est=0, gates=(), measure=(0, 0))


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
    assert qpe.width == 7
    assert qpe.graph_register == (0, 1, 2, 3)
    assert qpe.est_register == (4, 5, 6)
    assert qpe.measure == (4, 5, 6)
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
    counts = np.rint(readout(circuit) * (1 << g.n)).astype(np.int64)
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
    assert [g.kind for g in inverse_qft(1)] == ["h"]
    gates = inverse_qft(2)
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
            out = _apply_gates(t, inverse_qft(t), start)
            assert np.allclose(out, adjoint[:, x], atol=1e-12)


def test_qft_rejects_empty_register():
    with pytest.raises(InputError):
        inverse_qft(0)


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


def test_export_qasm_deterministic():
    qpe = build_qpe(named_graph("petersen"))
    assert export_qasm(qpe) == export_qasm(qpe)


def test_qasm_roundtrip():
    for graph in ("c4", "m3", "petersen"):
        for fuse in (False, True):
            circuit = build_qpe(named_graph(graph), fuse=fuse)
            assert parse_qasm(export_qasm(circuit)) == circuit
    oracle = build_oracle(named_graph("g1"), Fraction(1, 16))
    assert parse_qasm(export_qasm(oracle)) == oracle


@pytest.mark.parametrize("fuse", [False, True])
@given(g=graphs(max_n=7))
def test_qasm_round_trip_reads_the_histogram(fuse, g):
    circuit = build_qpe(g, fuse=fuse)
    again = parse_qasm(export_qasm(circuit))
    assert again == circuit
    # The re-read circuit takes the simulator's one path.
    scaled = readout(again) * (1 << g.n)
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


def test_parse_qasm_errors():
    with pytest.raises(InputError, match="header"):
        parse_qasm("h q[0];")
    with pytest.raises(InputError, match="unsupported"):
        parse_qasm("OPENQASM 3.0;\nqubit[2] g;\ncz g[0], g[1];")
    with pytest.raises(InputError, match="outside declared"):
        parse_qasm("OPENQASM 3.0;\nqubit[1] g;\nh g[3];")
    # A second "qubit[3] g;" would have moved the H on e[0] onto g[2].
    for reg in ("g", "e"):
        with pytest.raises(InputError, match="declared twice"):
            parse_qasm(f"OPENQASM 3.0;\nqubit[2] g;\nqubit[1] e;\nh e[0];\nqubit[3] {reg};")
    head = "OPENQASM 3.0;\nqubit[2] g;\n"
    with pytest.raises(InputError, match="outside declared bit register"):
        parse_qasm(head + "bit[1] meas;\nmeas[0] = measure g[0];\nmeas[1] = measure g[1];")
    with pytest.raises(InputError, match="declared twice"):
        parse_qasm(head + "bit[1] meas;\nbit[5] meas;")
    with pytest.raises(InputError, match="outside declared bit register"):
        parse_qasm(head + "meas[0] = measure g[0];")


@pytest.mark.parametrize("literal", ["nan", "inf", "-inf", "1e999"])
def test_parse_qasm_rejects_non_finite_angles(literal):
    with pytest.raises(InputError, match="bad angle literal"):
        parse_qasm(f"OPENQASM 3.0;\nqubit[1] g;\np({literal}) g[0];")


def test_parse_qasm_rejects_overlong_numbers():
    # int() itself refuses a digit string this long with a ValueError.
    with pytest.raises(InputError, match="too large"):
        parse_qasm("OPENQASM 3.0;\nqubit[" + "9" * 5000 + "] g;")


# Statements shaped like export_qasm's: a template and the kind of each
# field in it (a: angle, i: index, r: register).
_QASM_STATEMENTS = (
    ("qubit[{}] {};", "ir"),
    ("bit[{}] meas;", "i"),
    ("h {}[{}];", "ri"),
    ("p({}) {}[{}];", "ari"),
    ("cp({}) {}[{}], {}[{}];", "ariri"),
    ("ctrl @ cp({}) {}[{}], {}[{}], {}[{}];", "aririri"),
    ("swap {}[{}], {}[{}];", "riri"),
    ("meas[{}] = measure {}[{}];", "iri"),
)
_QASM_FIELDS = {
    "a": st.one_of(
        st.floats().map(repr),
        st.sampled_from(["nan", "inf", "-inf", "1e999", "pi", ""]),
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
    # Every measured bit lies inside the one bit register declared, if any.
    lines = (raw.split("//", 1)[0].strip() for raw in text.splitlines())
    declared = [
        int(mt.group(1)) for ln in lines if (mt := re.fullmatch(r"bit\[(\d+)\] meas;", ln))
    ]
    assert len(declared) <= 1
    assert len(circuit.measure) <= sum(declared)


def test_measurement_roundtrip_order():
    circuit = build_qpe(named_graph("m3"))
    text = export_qasm(circuit)
    assert "meas[0] = measure e[0];" in text
    assert parse_qasm(text).measure == circuit.measure
