"""Dense statevector simulation of the circuits qgi builds.

A state is its amplitude array, 1-D complex128 with 2^w entries for w
qubits (`_width` checks it).  Amplitude indexing is little-endian:
qubit i is bit i of the state index, so a graph-register basis state IS
the vertex-subset mask.

`run` and `_readout` take one path, a `_Program`.  `_compile` reads the
graph off a circuit's phase gates and makes the program before any
amplitude is touched, if the circuit is one of the two that qgi builds
from that graph (circuit._built), and raises InputError for any other:
- build_qpe(graph, fuse), fused or not: after the H layer, graph basis
  state S with estimation value r carries r * e(S) / 2^t turns, where
  e(S) is the number of the graph's edges that S induces, and the
  inverse-QFT tail is one FFT along the estimation register's axis;
- an H on every graph qubit, then build_oracle(graph, turns) with
  dyadic turns of at most 16 bits: S carries turns * e(S).
Both give estimation value r the integer phase index
(unit + r) * e(S) mod 2^bits, written with the uniform amplitude by one
lookup in a 2^bits-entry exp table.  So the 2^t final amplitudes of a
graph basis state S depend only on e(S): they are column e(S) of one
(2^t, m + 1) matrix, built once per program.
`_readout` is one product: |rows|^2 times graphs._edge_tally, how many
subsets induce each edge count, tallied one slice of 2^16 subsets at a
time from the one slice decomposition, graphs._slice_tables (above 16
graph qubits, keyed slices that each stand for 2^j subsets): its time
grows at most as 2^n_graph and its memory is one slice and the rows,
so it has no width cap.
quantum_histogram builds no circuit: it reads out `_qpe_program`, what
build_qpe's circuit compiles to.  `run` gathers every graph basis
state's column, using the kernel's counts as column ids, into the
statevector.  Only `run` holds all 2^w amplitudes, so HARD_MAX_QUBITS
and `_peak_bytes` bound `run` (and `init_state`) alone.

The gate loop (`init_state`, then `apply_gate` for each gate) and
`marginal` of its state are the reference that the tests compare `run`
and `_readout` against; the program itself never calls them.
apply_gate works in place on reshaped views; marginal holds |amp|^2,
8 B per amplitude, and is not admitted against memory.
`dump_amplitudes` writes only the amplitudes with |amp| > 1e-12.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TextIO

import numpy as np

from . import graphs
from .circuit import _NOT_BUILT, Circuit, Gate, _built
from .errors import InputError, InternalCheckError, ResourceLimitError
from .graphs import MAX_VERTICES, Graph

# Widest circuit run and init_state accept: they allocate 2^w
# amplitudes, 16 B each, 4 GiB at 28 qubits.
HARD_MAX_QUBITS = 28

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def init_state(n_qubits: int) -> np.ndarray:
    """|0...0> on n_qubits qubits, where the reference gate loop starts."""
    if not 1 <= n_qubits <= HARD_MAX_QUBITS:
        raise ResourceLimitError(f"qubit count {n_qubits} outside 1..{HARD_MAX_QUBITS}")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return amps


def _width(amps: np.ndarray, qubits: tuple[int, ...] = ()) -> int:
    """The qubit count w of a state, the 1-D complex128 array of its
    2^w >= 2 amplitudes; InputError for any other value, or for a qubit
    of qubits outside 0..w-1."""
    array = isinstance(amps, np.ndarray)
    w = amps.size.bit_length() - 1 if array else 0
    if not (w > 0 and amps.ndim == 1 and amps.dtype == np.complex128 and amps.size == 1 << w):
        got = f"{amps.dtype} of shape {amps.shape}" if array else type(amps).__name__
        raise InputError(f"a state is a 1-D complex128 array of 2^w >= 2 amplitudes, got {got}")
    for q in qubits:
        if not 0 <= q < w:
            raise InputError(f"qubit {q} out of range for {w}-qubit state")
    return w


def apply_gate(amps: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate in place and return the same amplitude array: one
    step of the reference gate loop, which simulates any circuit."""
    _width(amps, gate.qubits)
    if not amps.flags.writeable:
        raise InputError("apply_gate writes the state in place, got a read-only array")
    kind = gate.kind
    if kind == "h":
        (q,) = gate.qubits
        v = amps.reshape(-1, 2, 1 << q)
        lo = v[:, 0, :].copy()
        hi = v[:, 1, :]
        v[:, 0, :] = (lo + hi) * _INV_SQRT2
        v[:, 1, :] = (lo - hi) * _INV_SQRT2
    elif kind == "cp":
        a, b = sorted(gate.qubits)
        v = amps.reshape(-1, 2, 1 << (b - a - 1), 2, 1 << a)
        v[:, 1, :, 1, :] *= np.exp(1j * gate.phase)
    elif kind == "ccp":
        a, b, c = sorted(gate.qubits)
        v = amps.reshape(-1, 2, 1 << (c - b - 1), 2, 1 << (b - a - 1), 2, 1 << a)
        v[:, 1, :, 1, :, 1, :] *= np.exp(1j * gate.phase)
    elif kind == "swap":
        a, b = sorted(gate.qubits)
        v = amps.reshape(-1, 2, 1 << (b - a - 1), 2, 1 << a)
        tmp = v[:, 0, :, 1, :].copy()
        v[:, 0, :, 1, :] = v[:, 1, :, 0, :]
        v[:, 1, :, 0, :] = tmp
    else:  # unreachable: Gate validates kind
        raise InputError(f"unknown gate kind {kind!r}")
    return amps


# An oracle's turns have at most _PHASE_BITS bits, so a program's exp
# table has at most 2^16 entries.
_PHASE_BITS = 16
# dump_amplitudes scans 2^_BLOCK_BITS amplitudes at a time, so its
# temporaries stay in cache and small at any width.
_BLOCK_BITS = 16
# Largest distance, in radians, of a phase_table phase from its multiple.
_PHASE_ATOL = 1e-6

# Bytes at the peak of `run` besides graphs._sweep_bytes: the complex128
# amplitudes; per row element, the complex128 row and its int64 phase
# index; per mask of a slice, 10 B: 8 B of intp row ids, one buffer that
# every slice reuses, and 2 B.  With the sweep's 10 B that is 20 B, where
# run holds 10 to 12 B (the ids beside base, and above 16 graph qubits
# the slice buffer): the sweep's own peak passes before the ids exist.
# Per entry of the 2^bits exp table, its int64 exponents,
# their complex multiple and the table; and the Python and numpy
# objects, about 10 KiB at most.
_AMP_BYTES = 16
_ROW_BYTES = 16 + 8
_ID_BYTES = 8 + 2
_TABLE_BYTES = 8 + 16 + 16
_OBJECT_BYTES = 1 << 14


@dataclass(frozen=True)
class _Program:
    """A compiled circuit, or the program of a precision plan
    (`_qpe_program`): the uniform state on the graph register and t
    estimation qubits times exp(2*pi*i * (unit + r) * e(S) / 2^bits) on
    graph basis state S with estimation value r, then an inverse QFT on
    the estimation register if t > 0.  e(S) is the number of edges of
    graph that S induces.  build_qpe's circuit has unit 0 and bits t;
    an H layer and build_oracle(graph, unit / 2^bits) have t = 0."""

    bits: int
    graph: Graph
    t: int
    unit: int


def _compile(circuit: Circuit) -> _Program:
    """The program of a circuit of circuit._built for the graph that its
    phase gates lie on, where an oracle's turns are also dyadic of at
    most _PHASE_BITS bits, the exp table's size.  InputError for every
    other circuit, and first ResourceLimitError for a graph register of
    more than graphs.MAX_VERTICES qubits, which no Graph can hold.
    `_readout` of it is the circuit's estimation-register marginal."""
    n, t = circuit.n_graph, circuit.n_est
    if n > MAX_VERTICES:
        raise ResourceLimitError(
            f"graph register of {n} qubits exceeds the {MAX_VERTICES}-vertex limit"
        )
    phases = [gate for gate in circuit.gates if gate.turns is not None]
    # Each oracle gate that qgi builds ends on its edge; the pairs of the
    # inverse-QFT tail lie on no graph qubit.
    pairs = {gate.qubits[-2:] for gate in phases}
    graph = Graph.from_edges(n, [pair for pair in pairs if max(pair) < n])
    turns = phases[0].turns if phases else Fraction(0)
    den = turns.denominator
    dyadic = not den & (den - 1) and den <= 1 << _PHASE_BITS
    if not (t or dyadic) or circuit not in _built(graph, t, turns):
        raise InputError("circuit is " + _NOT_BUILT)
    if t:
        return _qpe_program(graph, t)
    return _Program(den.bit_length() - 1, graph, 0, turns.numerator)


def _qpe_program(g: Graph, t: int) -> _Program:
    """_compile(build_qpe(g)), fused or not, for t estimation qubits:
    r / 2^t turns per induced edge at estimation value r.  An edgeless
    g reads only entry 0 of the exp table, the phase of 0 edges."""
    return _Program(t, g, t, 0)


def _peak_bytes(program: _Program) -> int:
    """Estimated peak bytes of `run` on program: the amplitudes, the
    rows with their phase indices, one slice's row ids, the kernel's
    sweep (graphs._sweep_bytes), the exp table and the objects."""
    n, t = program.graph.n, program.t
    return (
        (_AMP_BYTES << (n + t))
        + (_ROW_BYTES * (program.graph.m + 1) << t)
        + (_ID_BYTES << min(n, graphs._SLICE_BITS))
        + graphs._sweep_bytes(n)
        + (_TABLE_BYTES << program.bits)
        + _OBJECT_BYTES
    )


def _mem_available() -> int | None:
    """MemAvailable from /proc/meminfo in bytes, None where unreadable."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError):
        pass
    return None


def _admit(need: int, what: str) -> None:
    """ResourceLimitError if need bytes exceed MemAvailable, where it
    can be read."""
    available = _mem_available()
    if available is not None and need > available:
        raise ResourceLimitError(
            f"{what} needs about {need / 2**20:.1f} MiB, "
            f"only {available / 2**20:.1f} MiB available"
        )


def _rows(program: _Program) -> np.ndarray:
    """The (2^t, m + 1) complex rows of program: rows[r, k] is the final
    amplitude of estimation value r for every graph basis state that
    induces k edges of program.graph.

    Row r's phase index is (unit + r) * k mod 2^bits for edge count k,
    one outer product; one lookup in the exp table, then the FFT along
    the rows if the program has estimation qubits."""
    t = program.t
    table = np.exp(2j * math.pi / (1 << program.bits) * np.arange(1 << program.bits))
    table *= 2.0 ** (-(program.graph.n + t) / 2)
    r = np.arange(program.unit, program.unit + (1 << t))
    idx = np.outer(r, np.arange(program.graph.m + 1))
    idx &= (1 << program.bits) - 1
    # Every index is below len(table): "clip" skips the bounds check.
    rows = np.take(table, idx, mode="clip")
    if t:
        np.fft.fft(rows, axis=0, norm="ortho", out=rows)
    return rows


def run(circuit: Circuit) -> np.ndarray:
    """Simulate from |0...0>, returning the final amplitude array: the
    rows are built once, then each slice of graph basis states gathers
    its columns by the edge counts that graphs._edge_counts gives it.

    Raises InputError unless circuit is one of the two that qgi builds
    (see `_compile`), and ResourceLimitError before allocating when the width exceeds
    HARD_MAX_QUBITS, the graph register graphs.MAX_VERTICES qubits, or
    _peak_bytes exceeds MemAvailable.
    """
    if circuit.width > HARD_MAX_QUBITS:
        raise ResourceLimitError(
            f"circuit width {circuit.width} exceeds the {HARD_MAX_QUBITS}-qubit limit"
        )
    program = _compile(circuit)
    _admit(_peak_bytes(program), f"circuit width {circuit.width}")
    amps = np.empty(1 << circuit.width, dtype=np.complex128)
    block = amps.reshape(1 << circuit.n_est, -1)
    rows = _rows(program)
    ids = None
    for start, e in graphs._edge_counts(program.graph):
        # One intp buffer for every slice's ids, made after the kernel's peak.
        ids = np.empty(len(e), dtype=np.intp) if ids is None else ids
        np.copyto(ids, e)
        # Row by row, so each gather writes a contiguous run in place.
        for r in range(len(rows)):
            np.take(rows[r], ids, out=block[r, start : start + len(ids)], mode="clip")
    norm = float(np.vdot(amps, amps).real)
    if abs(norm - 1.0) > 1e-9:
        raise InternalCheckError(f"norm drifted to {norm!r} after {len(circuit.gates)} gates")
    return amps


def _readout(program: _Program) -> np.ndarray:
    """`marginal` of the estimation register after `run` of program:
    |rows|^2 weighted by graphs._edge_tally, one matrix product, with no
    statevector held.  Its memory is one slice and the rows, at most
    2^9 x 277 amplitudes (2.3 MB) in quantum_histogram.
    InternalCheckError unless the total mass is within 1e-9 of 1."""
    probs = np.abs(_rows(program)) ** 2 @ graphs._edge_tally(program.graph)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise InternalCheckError(f"read-out mass drifted to {total!r}")
    probs[probs < 1e-12] = 0.0
    return probs


def marginal(amps: np.ndarray, register: tuple[int, ...]) -> np.ndarray:
    """Measurement distribution of the given qubits, all others traced
    out: probs[x] for outcome x, whose bit p comes from register[p].
    Probabilities below 1e-12 are clamped to zero.  The reference for
    `_readout`, read from the gate loop's state or `run`'s."""
    k = len(register)
    if k == 0:
        raise InputError("empty measurement register")
    if len(set(register)) != k:
        raise InputError(f"duplicate qubits in register {register}")
    n = _width(amps, register)
    # Axis n-1-q of the C-order cube is qubit q.  With register[k-1]
    # moved to the front and register[0] to axis k-1, the flat index of
    # what is left after summing out the other axes is the outcome.
    cube = (np.abs(amps) ** 2).reshape((2,) * n)
    front = np.moveaxis(cube, [n - 1 - q for q in reversed(register)], range(k))
    probs = front.sum(axis=tuple(range(k, n))).reshape(-1)
    probs[probs < 1e-12] = 0.0
    return probs


def sample(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """How often each outcome of probs (as `marginal` returns) is drawn
    in shots independent measurements: one multinomial draw over the
    outcomes of nonzero probability, so time and memory do not grow
    with shots.

    PCG64 with an explicit seed; identical (probs, shots, seed) give
    identical counts with the same numpy.  InputError for shots or a
    seed that is not an integer, shots outside 1..2^63-1, a negative
    seed, probs that is not a non-empty 1-D array, or a non-finite or
    negative probability.
    """
    try:
        shots, seed = operator.index(shots), operator.index(seed)
    except TypeError:
        raise InputError(f"shots and seed must be integers, got {shots!r} and {seed!r}") from None
    if shots < 1:
        raise InputError(f"shots must be positive, got {shots}")
    if shots >= 1 << 63:
        raise InputError(f"shots must be below 2^63, got {shots}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or not probs.size or not np.isfinite(probs).all() or (probs < 0).any():
        raise InputError("probabilities must be a non-empty 1-D array, finite and non-negative")
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise InternalCheckError(f"marginal mass {total!r} is not 1")
    # numpy hands the last outcome whatever the binomial draws before it
    # leave, rounding remainders included, so it must have mass.
    support = np.flatnonzero(probs)
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = np.zeros(len(probs), dtype=np.int64)
    counts[support] = rng.multinomial(shots, probs[support] / total)
    return counts


def phase_table(amps: np.ndarray, theta: float) -> dict[int, int]:
    """Rotation counts of a diagonal-evolution state.

    For each nonzero amplitude, returns the integer k with
    arg(amp) = k * theta (mod 2*pi).  Raises InternalCheckError if any
    amplitude's phase is farther than _PHASE_ATOL from every such
    multiple.
    """
    _width(amps)
    if theta <= 0:
        raise InputError(f"theta must be positive, got {theta}")
    idx = np.nonzero(np.abs(amps) > 1e-12)[0]
    angles = np.mod(np.angle(amps[idx]), math.tau)
    # rint picks the nearest multiple, so the residual is <= theta/2;
    # k == 2*pi/theta is folded back to 0 below.
    ks = np.rint(angles / theta).astype(np.int64)
    bad = np.abs(angles - ks * theta) > _PHASE_ATOL
    if np.any(bad):
        first = int(idx[bad][0])
        raise InternalCheckError(
            f"amplitude {first} phase {float(angles[bad][0])!r} is not a "
            f"multiple of theta={theta!r} within {_PHASE_ATOL}"
        )
    full = round(math.tau / theta)
    if full > 0 and abs(math.tau / theta - full) < 1e-9:
        ks %= full
    return dict(zip(idx.tolist(), ks.tolist()))


def dump_amplitudes(amps: np.ndarray, fh: TextIO) -> None:
    """Write the amplitudes with |amp| > 1e-12 to fh as the JSON
    {"qubits": w, "amplitudes": [[index, re, im], ...]}, in ascending
    index, 2^_BLOCK_BITS amplitudes at a time."""
    fh.write(f'{{"qubits": {_width(amps)}, "amplitudes": [')
    sep = ""
    step = 1 << _BLOCK_BITS
    for start in range(0, len(amps), step):
        chunk = amps[start : start + step]
        idx = np.flatnonzero(np.abs(chunk) > 1e-12)
        kept = chunk[idx]
        for i, re, im in zip((idx + start).tolist(), kept.real.tolist(), kept.imag.tolist()):
            fh.write(f"{sep}[{i}, {re!r}, {im!r}]")
            sep = ", "
    fh.write("]}")
