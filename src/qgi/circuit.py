"""Phase-oracle and phase-estimation circuit construction.

Qubits are numbered globally: 0..n-1 form the graph register (vertex i
on qubit i), n..n+t-1 the estimation register.  Estimation qubit j
(local index, 0-based) carries bit j of the edge-count readout, i.e.
the register is read LSB-first in ascending qubit order.

Gate phases are stored as exact Fractions of a full turn (phi / 2*pi),
normalized into [0, 1).  Powers and fusions of oracle phases therefore
stay exact; radians appear only at export and simulation time.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .graphs import Graph

_ARITY = {"h": 1, "cp": 2, "ccp": 3, "swap": 2}
_PHASED = {"cp", "ccp"}
# The one OpenQASM 3 spelling of each kind, written by export_qasm and
# read by parse_qasm; a phase kind's angle follows it in parentheses.
_QASM_NAMES = {"h": "h", "cp": "cp", "ccp": "ctrl @ cp", "swap": "swap"}


@dataclass(frozen=True)
class Gate:
    """One primitive gate: kind in {h, cp, ccp, swap}.

    Phase gates carry `turns`, the angle as an exact fraction of a full
    turn in [0, 1).  Controls and targets are interchangeable for the
    (symmetric) controlled-phase kinds.
    """

    kind: str
    qubits: tuple[int, ...]
    turns: Fraction | None = None

    def __post_init__(self) -> None:
        kind, qubits, turns = self.kind, self.qubits, self.turns
        arity = _ARITY.get(kind)
        if arity is None:
            raise InputError(f"unknown gate kind {kind!r}")
        if len(qubits) != arity:
            raise InputError(f"{kind} expects {arity} qubits")
        if len(set(qubits)) != arity:
            raise InputError(f"{kind} qubits must be distinct: {qubits}")
        if min(qubits) < 0:
            raise InputError(f"negative qubit index in {qubits}")
        if kind in _PHASED:
            if turns is None:
                raise InputError(f"{kind} requires a phase")
            # A Fraction's denominator is positive: this is 0 <= turns < 1
            # without building a Fraction per comparison.
            if not isinstance(turns, Fraction) or not 0 <= turns.numerator < turns.denominator:
                raise InputError(f"phase {turns!r} is not a Fraction in [0, 1) turns")
        elif turns is not None:
            raise InputError(f"{kind} takes no phase")

    @property
    def phase(self) -> float:
        """Phase angle in radians."""
        if self.turns is None:
            raise InputError(f"{self.kind} has no phase")
        return float(self.turns) * math.tau


def h(q: int) -> Gate:
    return Gate("h", (q,))


def cp(a: int, b: int, turns: Fraction | int) -> Gate:
    return Gate("cp", (a, b), Fraction(turns) % 1)


def ccp(a: int, b: int, c: int, turns: Fraction | int) -> Gate:
    return Gate("ccp", (a, b, c), Fraction(turns) % 1)


def swap(a: int, b: int) -> Gate:
    return Gate("swap", (a, b))


@dataclass(frozen=True)
class Circuit:
    """Gate list over a graph register and an estimation register.

    width = n_graph + n_est.  The estimation register is the one
    read-out, LSB of the outcome first.  The width check runs once per
    distinct gate object, in order of first occurrence, so the first
    gate out of range is the one named: the unfused circuit repeats
    each oracle power's gates 2^j times.
    """

    n_graph: int
    n_est: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.n_graph < 1 or self.n_est < 0:
            raise InputError("register sizes must be n_graph >= 1, n_est >= 0")
        w = self.width
        # self.gates keeps every gate alive, so no two of them share an id.
        for g in {id(g): g for g in self.gates}.values():
            if max(g.qubits) >= w:
                raise InputError(f"gate {g.kind} on {g.qubits} exceeds width {w}")

    @property
    def width(self) -> int:
        return self.n_graph + self.n_est


@dataclass(frozen=True)
class PrecisionPlan:
    """Estimation-register sizing for a given edge count.

    t is the smallest register size whose resolution 2*pi / 2^t keeps
    every subgraph phase m' * theta below a full turn, with one extra
    bit exactly when m is a power of two; theta_turns = 1 / 2^t.
    """

    m: int
    t: int
    theta_turns: Fraction
    oracle_calls: int

    @property
    def theta(self) -> float:
        """Oracle phase step in radians."""
        return float(self.theta_turns) * math.tau


def plan_precision(m: int) -> PrecisionPlan:
    """Precision plan for a graph with m edges (t >= 1 even for m = 0)."""
    if m < 0:
        raise InputError(f"edge count must be nonnegative, got {m}")
    t = max(1, m.bit_length())
    return PrecisionPlan(m=m, t=t, theta_turns=Fraction(1, 1 << t), oracle_calls=(1 << t) - 1)


def build_oracle(g: Graph, theta_turns: Fraction) -> Circuit:
    """Diagonal phase oracle: one controlled-phase per edge.

    Maps a subset basis state |s> to exp(i * theta * e(s)) |s| where
    e(s) is the number of edges induced by s.  Gates are emitted in
    sorted edge order; all of them commute.
    """
    gates = tuple(cp(i, j, theta_turns) for i, j in g.edges())
    return Circuit(n_graph=g.n, n_est=0, gates=gates)


@functools.lru_cache(maxsize=32)
def _inverse_qft_at(t: int, offset: int) -> tuple[Gate, ...]:
    """Inverse Fourier transform on qubits offset..offset+t-1, LSB-first
    in and out: |k> -> 2^(-t/2) * sum_x exp(-2*pi*i*x*k / 2^t) |x>.
    t=1 reduces to a single H; t=2 yields SWAP, H, CP(-pi/2), H.  Each
    gate is built once, with its turns already in [0, 1)."""
    if t < 1:
        raise InputError(f"register size must be positive, got {t}")
    gates: list[Gate] = []
    for i in range(t // 2):
        gates.append(swap(offset + i, offset + t - 1 - i))
    for j in range(t):
        for k in range(j):
            den = 1 << (j - k + 1)  # -1/den turns
            gates.append(Gate("cp", (offset + k, offset + j), Fraction(den - 1, den)))
        gates.append(h(offset + j))
    return tuple(gates)


def build_qpe(g: Graph, fuse: bool = False) -> Circuit:
    """Phase-estimation circuit reading off induced-edge counts.

    Prepares the uniform superposition over vertex subsets, applies the
    phase oracle 2^j times controlled on estimation qubit j (fused into
    a single doubly-controlled phase per edge when `fuse` is set), then
    the inverse Fourier transform on the estimation register.  Measuring
    that register yields outcome x with probability
    |{subsets inducing exactly x edges}| / 2^n.
    """
    plan = plan_precision(g.m)
    n, t = g.n, plan.t
    gates: list[Gate] = [h(q) for q in range(n + t)]
    edges = g.edges()
    for j in range(t):
        # Oracle power 2^j controlled on estimation qubit j: one fused
        # phase per edge, or the single oracle repeated 2^j times.
        turns = plan.theta_turns * (1 << j) % 1 if fuse else plan.theta_turns
        power = tuple(Gate("ccp", (n + j, a, b), turns) for a, b in edges)
        gates.extend(power if fuse else power * (1 << j))
    gates.extend(_inverse_qft_at(t, n))
    return Circuit(n_graph=n, n_est=t, gates=tuple(gates))


def _fmt_angle(turns: Fraction) -> str:
    return f"{float(turns) * math.tau:.12g}"


def export_qasm(circuit: Circuit, decompose_ccp: bool = False) -> str:
    """Render as OpenQASM 3, one gate per line, deterministically.

    Registers are declared as `g` (graph) and `e` (estimation), and
    every estimation qubit e[j] is measured into bit meas[j].  The
    doubly-controlled phase is emitted as `ctrl @ cp(...)` by default;
    with decompose_ccp it is lowered to the standard two-qubit gate
    pattern cp/cx/cp/cx/cp (that output uses cx and is not re-readable
    by parse_qasm).
    """
    lines = ["OPENQASM 3.0;", 'include "stdgates.inc";']
    lines.append(f"qubit[{circuit.n_graph}] g;")
    if circuit.n_est:
        lines.append(f"qubit[{circuit.n_est}] e;")
        lines.append(f"bit[{circuit.n_est}] meas;")

    names = [f"g[{q}]" for q in range(circuit.n_graph)]
    names += [f"e[{j}]" for j in range(circuit.n_est)]
    # The angles of this call, each formatted once; keyed by (numerator,
    # denominator), which hashes faster than the Fraction.
    angles: dict[tuple[int, int], str] = {}
    halves: dict[tuple[int, int], tuple[str, str]] = {}

    def angle(turns: Fraction) -> str:
        key = (turns.numerator, turns.denominator)
        if key not in angles:
            angles[key] = _fmt_angle(turns)
        return angles[key]

    def render(gate: Gate) -> str:
        qs = [names[q] for q in gate.qubits]
        if gate.kind == "ccp" and decompose_ccp:
            a, b, c = qs
            key = (gate.turns.numerator, gate.turns.denominator)
            if key not in halves:
                halves[key] = (_fmt_angle(gate.turns / 2), _fmt_angle((-gate.turns / 2) % 1))
            half, neg = halves[key]
            return (
                f"cp({half}) {b}, {c};\ncx {a}, {b};\ncp({neg}) {b}, {c};\n"
                f"cx {a}, {b};\ncp({half}) {a}, {c};"
            )
        phase = "" if gate.turns is None else f"({angle(gate.turns)})"
        return f"{_QASM_NAMES[gate.kind]}{phase} {', '.join(qs)};"

    # Each distinct gate object rendered once: the unfused circuit
    # repeats each oracle power's gates 2^j times.  circuit.gates keeps
    # every gate alive, so no two of them share an id.
    rendered: dict[int, str] = {}
    for gate in circuit.gates:
        line = rendered.get(id(gate))
        if line is None:
            line = rendered[id(gate)] = render(gate)
        lines.append(line)
    lines += [f"meas[{j}] = measure e[{j}];" for j in range(circuit.n_est)]
    return "\n".join(lines) + "\n"


_DECL_RE = re.compile(r"(qubit|bit)\[(\d+)\] ([ge]|meas);")
_GATE_RE = re.compile(
    "(" + "|".join(map(re.escape, _QASM_NAMES.values())) + r")(?:\(([^)]+)\))? (.+);"
)
_OPERAND_RE = re.compile(r"([ge])\[(\d+)\]")
_MEAS_RE = re.compile(r"meas\[(\d+)\] = measure e\[(\d+)\];")
_KINDS = {name: kind for kind, name in _QASM_NAMES.items()}


def _num(tok: str) -> int:
    # int() refuses digit strings past a few thousand digits.
    if len(tok) > 9:
        raise InputError(f"number {tok[:12]}... is too large")
    return int(tok)


def _angle_to_turns(tok: str) -> Fraction:
    try:
        angle = float(tok)
    except ValueError:
        angle = math.nan  # rejected with nan, inf and overflowing literals
    if not math.isfinite(angle):
        raise InputError(f"bad angle literal {tok!r}")
    turns = Fraction(angle / math.tau).limit_denominator(1 << 16) % 1
    if abs(float(turns) * math.tau - angle % math.tau) > 1e-9:
        raise InputError(f"angle {tok} is not a recognized dyadic fraction of 2*pi")
    return turns


def parse_qasm(text: str) -> Circuit:
    """Re-read a circuit produced by export_qasm (default lowering only).

    A gate statement is a _QASM_NAMES spelling, an angle in parentheses
    for a phase, then its operands; Gate checks each one.  Operands are
    placed only after every declaration is read: g[i] is qubit i and
    e[j] is qubit n_graph + j, wherever `qubit[n_graph] g;` stands.
    A measurement, if any, must be the one export_qasm writes: bit[t]
    meas; then meas[j] = measure e[j]; for j = 0..t-1, t = n_est >= 1.
    Library API: it reads back what `encode` writes; no subcommand does."""
    lines = [line for raw in text.splitlines() if (line := raw.split("//", 1)[0].strip())]
    if not lines or lines[0] != "OPENQASM 3.0;":
        raise InputError("expected an OPENQASM 3.0 header")
    sizes: dict[str, int] = {}  # declared registers
    statements: list[tuple[str, list[tuple[str, int]], Fraction | None]] = []
    meas: list[tuple[int, int]] = []
    for line in lines[1:]:
        if line == 'include "stdgates.inc";':
            continue
        if (mt := _DECL_RE.fullmatch(line)) and (mt[1] == "bit") == (mt[3] == "meas"):
            # A register declared twice would have no one size to place by.
            if mt[3] in sizes:
                raise InputError(f"register {mt[3]} declared twice")
            sizes[mt[3]] = _num(mt[2])
        elif (mt := _GATE_RE.fullmatch(line)) and all(
            ops := [_OPERAND_RE.fullmatch(op) for op in mt[3].split(", ")]
        ):
            turns = None if mt[2] is None else _angle_to_turns(mt[2])
            statements.append((_KINDS[mt[1]], [(op[1], _num(op[2])) for op in ops], turns))
        elif mt := _MEAS_RE.fullmatch(line):
            meas.append((_num(mt[1]), _num(mt[2])))
        else:
            raise InputError(f"unsupported statement: {line!r}")
    if sizes.get("g", 0) < 1:
        raise InputError("missing graph register declaration")
    t = sizes.get("e", 0)
    if ("meas" in sizes or meas) and (
        not t or sizes.get("meas") != t or meas != [(j, j) for j in range(t)]
    ):
        raise InputError(
            "a measurement must be bit[t] meas; then meas[j] = measure e[j]; "
            "for each estimation qubit j in order"
        )
    offset = {"g": 0, "e": sizes["g"]}
    gates = []
    for kind, ops, turns in statements:
        for reg, i in ops:
            if i >= sizes.get(reg, 0):
                raise InputError(f"qubit {reg}[{i}] outside declared register")
        gates.append(Gate(kind, tuple(offset[reg] + i for reg, i in ops), turns))
    return Circuit(n_graph=sizes["g"], n_est=t, gates=tuple(gates))
