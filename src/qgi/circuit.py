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

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, ResourceLimitError
from .graphs import Graph

# Widest statevector the simulator will ever allocate (2^28 amplitudes).
HARD_MAX_QUBITS = 28

_ARITY = {"h": 1, "p": 1, "cp": 2, "ccp": 3, "swap": 2}
_PHASED = {"p", "cp", "ccp"}


@dataclass(frozen=True)
class Gate:
    """One primitive gate: kind in {h, p, cp, ccp, swap}.

    Phase gates carry `turns`, the angle as an exact fraction of a full
    turn in [0, 1).  Controls and targets are interchangeable for the
    (symmetric) controlled-phase kinds.
    """

    kind: str
    qubits: tuple[int, ...]
    turns: Fraction | None = None

    def __post_init__(self) -> None:
        if self.kind not in _ARITY:
            raise InputError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != _ARITY[self.kind]:
            raise InputError(f"{self.kind} expects {_ARITY[self.kind]} qubits")
        if len(set(self.qubits)) != len(self.qubits):
            raise InputError(f"{self.kind} qubits must be distinct: {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise InputError(f"negative qubit index in {self.qubits}")
        if self.kind in _PHASED:
            if self.turns is None:
                raise InputError(f"{self.kind} requires a phase")
            if not 0 <= self.turns < 1:
                raise InputError(f"phase {self.turns} not normalized to [0, 1) turns")
        elif self.turns is not None:
            raise InputError(f"{self.kind} takes no phase")

    @property
    def phase(self) -> float:
        """Phase angle in radians."""
        if self.turns is None:
            raise InputError(f"{self.kind} has no phase")
        return float(self.turns) * math.tau


def h(q: int) -> Gate:
    return Gate("h", (q,))


def p(q: int, turns: Fraction | int) -> Gate:
    return Gate("p", (q,), Fraction(turns) % 1)


def cp(a: int, b: int, turns: Fraction | int) -> Gate:
    return Gate("cp", (a, b), Fraction(turns) % 1)


def ccp(a: int, b: int, c: int, turns: Fraction | int) -> Gate:
    return Gate("ccp", (a, b, c), Fraction(turns) % 1)


def swap(a: int, b: int) -> Gate:
    return Gate("swap", (a, b))


@dataclass(frozen=True)
class Circuit:
    """Gate list over a graph register and an estimation register.

    width = n_graph + n_est.  `measure` lists the qubits to read out,
    LSB of the outcome first.
    """

    n_graph: int
    n_est: int
    gates: tuple[Gate, ...]
    measure: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n_graph < 1 or self.n_est < 0:
            raise InputError("register sizes must be n_graph >= 1, n_est >= 0")
        w = self.width
        for g in self.gates:
            if any(q >= w for q in g.qubits):
                raise InputError(f"gate {g.kind} on {g.qubits} exceeds width {w}")
        if len(set(self.measure)) != len(self.measure):
            raise InputError("duplicate qubit in measurement list")
        if any(not 0 <= q < w for q in self.measure):
            raise InputError("measured qubit out of range")

    @property
    def width(self) -> int:
        return self.n_graph + self.n_est

    @property
    def graph_register(self) -> tuple[int, ...]:
        return tuple(range(self.n_graph))

    @property
    def est_register(self) -> tuple[int, ...]:
        return tuple(range(self.n_graph, self.width))


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


def _shifted(gates: tuple[Gate, ...], offset: int) -> tuple[Gate, ...]:
    return tuple(
        Gate(g.kind, tuple(q + offset for q in g.qubits), g.turns) for g in gates
    )


def inverse_qft(t: int) -> tuple[Gate, ...]:
    """Inverse Fourier transform on qubits 0..t-1, LSB-first in and out:
    |k> -> 2^(-t/2) * sum_x exp(-2*pi*i*x*k / 2^t) |x>.  t=1 reduces to
    a single H; t=2 yields SWAP, H, CP(-pi/2), H."""
    if t < 1:
        raise InputError(f"register size must be positive, got {t}")
    gates: list[Gate] = []
    for i in range(t // 2):
        gates.append(swap(i, t - 1 - i))
    for j in range(t):
        for k in range(j):
            gates.append(cp(k, j, -Fraction(1, 1 << (j - k + 1))))
        gates.append(h(j))
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
    width = n + t
    if width > HARD_MAX_QUBITS:
        raise ResourceLimitError(
            f"circuit width {width} exceeds the {HARD_MAX_QUBITS}-qubit limit"
        )
    gates: list[Gate] = [h(q) for q in range(width)]
    edges = g.edges()
    for j in range(t):
        ctrl = n + j
        reps = 1 << j
        if fuse:
            fused = (plan.theta_turns * reps) % 1
            gates.extend(ccp(ctrl, a, b, fused) for a, b in edges)
        else:
            for _ in range(reps):
                gates.extend(ccp(ctrl, a, b, plan.theta_turns) for a, b in edges)
    gates.extend(_shifted(inverse_qft(t), n))
    return Circuit(
        n_graph=n,
        n_est=t,
        gates=tuple(gates),
        measure=tuple(range(n, width)),
    )


def _fmt_angle(turns: Fraction) -> str:
    return f"{float(turns) * math.tau:.12g}"


def export_qasm(circuit: Circuit, decompose_ccp: bool = False) -> str:
    """Render as OpenQASM 3, one gate per line, deterministically.

    Registers are declared as `g` (graph) and `e` (estimation).  The
    doubly-controlled phase is emitted as `ctrl @ cp(...)` by default;
    with decompose_ccp it is lowered to the standard two-qubit gate
    pattern cp/cx/cp/cx/cp (that output uses cx and is not re-readable
    by parse_qasm).
    """
    lines = ["OPENQASM 3.0;", 'include "stdgates.inc";']
    lines.append(f"qubit[{circuit.n_graph}] g;")
    if circuit.n_est:
        lines.append(f"qubit[{circuit.n_est}] e;")
    if circuit.measure:
        lines.append(f"bit[{len(circuit.measure)}] meas;")

    def nm(q: int) -> str:
        if q < circuit.n_graph:
            return f"g[{q}]"
        return f"e[{q - circuit.n_graph}]"

    for gate in circuit.gates:
        qs = gate.qubits
        if gate.kind == "h":
            lines.append(f"h {nm(qs[0])};")
        elif gate.kind == "p":
            lines.append(f"p({_fmt_angle(gate.turns)}) {nm(qs[0])};")
        elif gate.kind == "cp":
            lines.append(f"cp({_fmt_angle(gate.turns)}) {nm(qs[0])}, {nm(qs[1])};")
        elif gate.kind == "swap":
            lines.append(f"swap {nm(qs[0])}, {nm(qs[1])};")
        elif gate.kind == "ccp":
            a, b, c = qs
            if not decompose_ccp:
                lines.append(
                    f"ctrl @ cp({_fmt_angle(gate.turns)}) {nm(a)}, {nm(b)}, {nm(c)};"
                )
            else:
                half = _fmt_angle(gate.turns / 2)
                neg = _fmt_angle((-gate.turns / 2) % 1)
                lines.append(f"cp({half}) {nm(b)}, {nm(c)};")
                lines.append(f"cx {nm(a)}, {nm(b)};")
                lines.append(f"cp({neg}) {nm(b)}, {nm(c)};")
                lines.append(f"cx {nm(a)}, {nm(b)};")
                lines.append(f"cp({half}) {nm(a)}, {nm(c)};")
    for k, q in enumerate(circuit.measure):
        lines.append(f"meas[{k}] = measure {nm(q)};")
    return "\n".join(lines) + "\n"


_DECL_RE = re.compile(r"qubit\[(\d+)\] ([ge]);")
_BIT_RE = re.compile(r"bit\[(\d+)\] meas;")
_H_RE = re.compile(r"h ([ge])\[(\d+)\];")
_P_RE = re.compile(r"p\(([^)]+)\) ([ge])\[(\d+)\];")
_CP_RE = re.compile(r"cp\(([^)]+)\) ([ge])\[(\d+)\], ([ge])\[(\d+)\];")
_CCP_RE = re.compile(
    r"ctrl @ cp\(([^)]+)\) ([ge])\[(\d+)\], ([ge])\[(\d+)\], ([ge])\[(\d+)\];"
)
_SWAP_RE = re.compile(r"swap ([ge])\[(\d+)\], ([ge])\[(\d+)\];")
_MEAS_RE = re.compile(r"meas\[(\d+)\] = measure ([ge])\[(\d+)\];")


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
    """Re-read a circuit produced by export_qasm (default lowering only)."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("//", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines or lines[0] != "OPENQASM 3.0;":
        raise InputError("expected an OPENQASM 3.0 header")
    sizes = {"g": 0, "e": 0}
    gates: list[Gate] = []
    meas: list[tuple[int, int]] = []

    def num(tok: str) -> int:
        # int() refuses digit strings past a few thousand digits.
        if len(tok) > 9:
            raise InputError(f"number {tok[:12]}... is too large")
        return int(tok)

    def qb(reg: str, idx: str) -> int:
        i = num(idx)
        if i >= sizes[reg]:
            raise InputError(f"qubit {reg}[{i}] outside declared register")
        return i if reg == "g" else sizes["g"] + i

    for line in lines[1:]:
        if line.startswith("include"):
            continue
        if mt := _DECL_RE.fullmatch(line):
            sizes[mt.group(2)] = num(mt.group(1))
        elif _BIT_RE.fullmatch(line):
            pass
        elif mt := _H_RE.fullmatch(line):
            gates.append(h(qb(mt.group(1), mt.group(2))))
        elif mt := _P_RE.fullmatch(line):
            gates.append(p(qb(mt.group(2), mt.group(3)), _angle_to_turns(mt.group(1))))
        elif mt := _CP_RE.fullmatch(line):
            gates.append(
                cp(
                    qb(mt.group(2), mt.group(3)),
                    qb(mt.group(4), mt.group(5)),
                    _angle_to_turns(mt.group(1)),
                )
            )
        elif mt := _CCP_RE.fullmatch(line):
            gates.append(
                ccp(
                    qb(mt.group(2), mt.group(3)),
                    qb(mt.group(4), mt.group(5)),
                    qb(mt.group(6), mt.group(7)),
                    _angle_to_turns(mt.group(1)),
                )
            )
        elif mt := _SWAP_RE.fullmatch(line):
            gates.append(swap(qb(mt.group(1), mt.group(2)), qb(mt.group(3), mt.group(4))))
        elif mt := _MEAS_RE.fullmatch(line):
            meas.append((num(mt.group(1)), qb(mt.group(2), mt.group(3))))
        else:
            raise InputError(f"unsupported statement: {line!r}")
    if sizes["g"] < 1:
        raise InputError("missing graph register declaration")
    meas.sort()
    if [k for k, _ in meas] != list(range(len(meas))):
        raise InputError("measurement bits must be meas[0..k-1]")
    return Circuit(
        n_graph=sizes["g"],
        n_est=sizes["e"],
        gates=tuple(gates),
        measure=tuple(q for _, q in meas),
    )
