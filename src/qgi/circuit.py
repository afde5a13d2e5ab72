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
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .graphs import Graph

_ARITY = {"h": 1, "cp": 2, "ccp": 3, "swap": 2}
_PHASED = {"cp", "ccp"}
# The one OpenQASM 3 spelling of each kind, written by export_qasm; a
# phase kind's angle follows it in parentheses.
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


# Why _compile refuses a circuit: it is none of _built's.
_NOT_BUILT = (
    "not one that qgi builds: build_qpe(g, fuse) of the graph g its phase gates lie on, "
    "or an H on every qubit then build_oracle(g, turns) with dyadic turns of at most 16 bits"
)


def _built(g: Graph, n_est: int, turns: Fraction) -> Iterator[Circuit]:
    """The circuits that qgi builds from g, each built only once the
    one before it is passed over: build_qpe(g, fuse), fused then
    unfused, when n_est > 0; otherwise an H on every graph qubit, then
    build_oracle(g, turns)."""
    if n_est:
        yield build_qpe(g, fuse=True)
        yield build_qpe(g)
    else:
        yield Circuit(g.n, 0, tuple(h(q) for q in range(g.n)) + build_oracle(g, turns).gates)


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


def parse_qasm(text: str) -> Circuit:
    """Re-read what export_qasm writes (default lowering) for a circuit
    that qgi builds: the first of _built whose export is text, once
    `//` comments, blank lines and the whitespace around each line are
    dropped.  n and t come from the `qubit[k] g;` and `qubit[k] e;`
    lines, the graph from the `g[a], g[b];` pairs that the phase gates
    end on, and an oracle's turns from its first `cp(angle) g[...]`
    line.  InputError for every other text.
    Library API: it reads back what `encode` writes; no subcommand does."""
    lines = [line for raw in text.splitlines() if (line := raw.split("//", 1)[0].strip())]
    body = "\n".join(lines) + "\n"
    sizes = {reg: int(k) for k, reg in re.findall(r"^qubit\[([0-9]{1,2})\] ([ge]);$", body, re.M)}
    pairs = re.findall(r" g\[([0-9]{1,2})\], g\[([0-9]{1,2})\];$", body, re.M)
    graph = Graph.from_edges(sizes.get("g", 0), [(int(a), int(b)) for a, b in pairs])
    # An exported angle is below 2*pi, so it has one digit before the
    # point, and float() of it is finite.
    angle = re.search(r"^cp\(([0-9](?:\.[0-9]+)?(?:e-[0-9]+)?)\) g\[", body, re.M)
    turns = Fraction(float(angle[1]) / math.tau if angle else 0).limit_denominator(1 << 16) % 1
    for circuit in _built(graph, sizes.get("e", 0), turns):
        if export_qasm(circuit) == body:
            return circuit
    raise InputError("text is not what export_qasm writes for a circuit that qgi builds")
