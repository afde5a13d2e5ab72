"""Dense statevector simulation of phase-estimation circuits.

Amplitude indexing is little-endian: qubit i is bit i of the state
index, so a graph-register basis state IS the vertex-subset mask.

`run` and `readout` take one path.  They compile a circuit of the
phase-estimation shape whole before any amplitude is touched, and
raise InputError for any other circuit:
- an H on every qubit of |0...0> as its first gates is the uniform
  state of amplitude 2^(-w/2);
- the phase gates (p, cp, ccp) that follow, all with dyadic turns of at
  most 16 bits, are merged per qubit set by exact sums of turns into
  one integer phase index mod 2^T, written with the uniform amplitude
  by one lookup in a 2^T-entry exp table;
- an optional tail equal to the inverse QFT on the estimation register
  is one FFT along that register's axis.
Each op before the FFT is diagonal and the FFT acts on the estimation
register alone, so the 2^t final amplitudes of a graph basis state
(a column) depend only on its phase units in each group of terms on
the same estimation qubits: its signature.  A QPE circuit has at most
m + 1 signatures, one per edge count.  `_signatures` takes the columns
2^18 at a time, labels each with its signature, and builds the rows of
the distinct signatures alone, about 2^16 amplitudes at a time.
`readout` adds each signature's |rows|^2, weighted by how many columns
share it, into the estimation-register marginal: its time grows as
2^n_graph and its memory is one slice at any width, so it has no width
cap.  `run` gathers every column from its signature's rows into the
statevector.  Only `run` holds all 2^w amplitudes, so HARD_MAX_QUBITS
and `peak_bytes` bound `run` (and `init_state`) alone.

The gate loop (`init_state`, then `apply_gate` for each gate) and
`marginal` of its state are the reference that the tests compare `run`
and `readout` against; the program itself never calls them.
apply_gate works in place on reshaped views; marginal holds |amp|^2,
8 B per amplitude, and is not admitted against memory.
`dump_amplitudes` writes only the amplitudes with |amp| > 1e-12.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import TextIO

import numpy as np

from .circuit import Circuit, Gate, _shifted, inverse_qft
from .errors import InputError, InternalCheckError, ResourceLimitError
from .graphs import MAX_VERTICES

# Widest circuit run and init_state accept, and widest estimation
# register readout accepts: they allocate 2^w (readout 2^t) amplitudes,
# 16 B each, 4 GiB at 28 qubits.
HARD_MAX_QUBITS = 28

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass
class Statevector:
    """2^n_qubits complex amplitudes, owned mutably by the simulator."""

    n_qubits: int
    amps: np.ndarray

    def norm_sq(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


def init_state(n_qubits: int) -> Statevector:
    """|0...0> on n_qubits qubits."""
    if not 1 <= n_qubits <= HARD_MAX_QUBITS:
        raise ResourceLimitError(
            f"qubit count {n_qubits} outside 1..{HARD_MAX_QUBITS}"
        )
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(n_qubits, amps)


def _check_qubit(state: Statevector, q: int) -> None:
    if not 0 <= q < state.n_qubits:
        raise InputError(f"qubit {q} out of range for {state.n_qubits}-qubit state")


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Apply one gate in place and return the same Statevector."""
    for q in gate.qubits:
        _check_qubit(state, q)
    amps = state.amps
    kind = gate.kind
    if kind == "h":
        (q,) = gate.qubits
        v = amps.reshape(-1, 2, 1 << q)
        lo = v[:, 0, :].copy()
        hi = v[:, 1, :]
        v[:, 0, :] = (lo + hi) * _INV_SQRT2
        v[:, 1, :] = (lo - hi) * _INV_SQRT2
    elif kind == "p":
        (q,) = gate.qubits
        v = amps.reshape(-1, 2, 1 << q)
        v[:, 1, :] *= np.exp(1j * gate.phase)
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
    return state


# A program accumulates turns in units of 2^-T with T <= _PHASE_BITS,
# so the integer phase index of every basis state fits in a uint16.
_PHASE_BITS = 16
_PHASE_KINDS = ("p", "cp", "ccp")
# The signature kernel takes 2^_SLICE_BITS graph basis states at a time.
_SLICE_BITS = 18
# Signature chunks and dump chunks hold about 2^_BLOCK_BITS amplitudes,
# so their temporaries stay in cache and small at any width.
_BLOCK_BITS = 16
# `sample` draws its shots this many at a time.
_SHOT_CHUNK = 1 << 20

# Bytes at the peak of `run`: the complex128 amplitudes; per signature
# and group of a slice, its complex128 row and the uint16 units of its
# base, its slice and its signature; per column of a slice, the ids,
# representatives, keys and sort or tally of the relabelling; per chunk
# element, the uint16 index, its intp cast and the lookup.
_AMP_BYTES = 16
_SIG_BYTES = 16 + 2 + 2 + 2
_COLUMN_TEMP_BYTES = 112
_BLOCK_TEMP_BYTES = 2 + 8 + 16


@dataclass(frozen=True)
class _Program:
    """A compiled circuit: the uniform state times exp(2*pi*i * units /
    2^bits) on the basis states with every qubit of a term set, for each
    (sorted qubits, units) term; then an inverse QFT on the estimation
    register if fft_tail."""

    bits: int
    terms: tuple[tuple[tuple[int, ...], int], ...]
    fft_tail: bool


def _dyadic_bits(turns: Fraction) -> int | None:
    """Bits of the power-of-two denominator of turns, None if not dyadic."""
    den = turns.denominator
    return den.bit_length() - 1 if den & (den - 1) == 0 else None


_OFF_SHAPE = (
    "circuit is not of the phase-estimation shape: an H on every qubit, then "
    "phase gates with dyadic turns of at most 16 bits, then optionally the "
    "inverse QFT on the estimation register"
)


@functools.lru_cache(maxsize=32)
def _iqft_tail(n_graph: int, n_est: int) -> tuple[Gate, ...]:
    return _shifted(inverse_qft(n_est), n_graph)


def _compile(circuit: Circuit) -> _Program:
    """The program of a circuit of the phase-estimation shape: an H on
    every qubit as its first gates, in any order, then only phase gates
    with dyadic turns of at most _PHASE_BITS bits, then optionally the
    inverse QFT on the estimation register.  InputError for any other
    circuit."""
    w = circuit.width
    gates = circuit.gates
    if {g.qubits[0] for g in gates[:w] if g.kind == "h"} != set(range(w)):
        raise InputError(_OFF_SHAPE)
    body = gates[w:]
    fft_tail = False
    if circuit.n_est:
        tail = _iqft_tail(circuit.n_graph, circuit.n_est)
        if body[-len(tail) :] == tail:
            fft_tail = True
            body = body[: -len(tail)]
    # Exact sums of the turns per qubit set, in units of 2^-_PHASE_BITS.
    merged: dict[tuple[int, ...], int] = {}
    for gate in body:
        bits = _dyadic_bits(gate.turns) if gate.kind in _PHASE_KINDS else None
        if bits is None or bits > _PHASE_BITS:
            raise InputError(_OFF_SHAPE)
        key = tuple(sorted(gate.qubits))
        units = gate.turns.numerator << (_PHASE_BITS - bits)
        merged[key] = (merged.get(key, 0) + units) % (1 << _PHASE_BITS)
    merged = {key: units for key, units in merged.items() if units}
    # The coarsest unit that still expresses every merged phase.
    shift = min(((units & -units).bit_length() - 1 for units in merged.values()), default=0)
    terms = tuple((key, units >> shift) for key, units in merged.items())
    return _Program(_PHASE_BITS - shift if terms else 0, terms, fft_tail)


def peak_bytes(circuit: Circuit) -> int:
    """Estimated peak bytes of `run` on circuit: the complex128
    amplitudes; the rows and units of one slice, as if each of its graph
    basis states had a signature of its own and each set of estimation
    qubits a group; the slice's column temporaries, whose dense tallies
    hold at least 2^_BLOCK_BITS entries; and one chunk's temporaries."""
    t = circuit.n_est
    cb = min(circuit.n_graph, _SLICE_BITS)
    return (
        (_AMP_BYTES << circuit.width)
        + (_SIG_BYTES << (t + cb))
        + (_COLUMN_TEMP_BYTES << max(cb, _BLOCK_BITS))
        + (_BLOCK_TEMP_BYTES << max(t, _BLOCK_BITS))
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


def _ones_view(arr: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """View of the rows of arr (its entries, if 1-D) whose index along
    axis 0 has every bit in qubits (sorted ascending) set."""
    shape: list[int] = []
    low = 0
    for q in qubits:
        shape[:0] = [2, 1 << (q - low)]
        low = q + 1
    key = (slice(None),) + (1, slice(None)) * len(qubits)
    return arr.reshape([-1, *shape, *arr.shape[1:]])[key]


def _by_mask(entries: list[tuple[int, int, int]], groups: int) -> dict[int, np.ndarray]:
    """{mask: uint16 units per group} from (group, units, bit) entries,
    each of which adds units where bit is set (everywhere if bit is 0);
    the bits of one group and units merge into one popcount mask."""
    merged: dict[tuple[int, int, bool], int] = {}
    for g, k, bit in entries:
        merged[g, k, not bit] = merged.get((g, k, not bit), 0) | bit
    sums: dict[int, list[int]] = {}
    for (g, k, _), mask in merged.items():
        sums.setdefault(mask, [0] * groups)[g] += k
    return {
        mask: np.array([k % (1 << _PHASE_BITS) for k in vec], dtype=np.uint16)
        for mask, vec in sums.items()
    }


def _add_linear(cols: np.ndarray, terms: dict[int, np.ndarray], low: np.ndarray) -> None:
    """Add to cols[c, g] the units that terms ({mask: units per group})
    give graph basis state low[c] in group g: units * popcount(low[c] &
    mask), or units for a mask of 0."""
    for mask, vec in terms.items():
        if not mask:
            cols += vec
            continue
        ones = np.bitwise_count(low & mask)
        for g, k in enumerate(vec):
            if k:
                cols[:, g] += ones * k


def _relabel(
    ids: np.ndarray, count: int, units: np.ndarray, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Refine count signature ids by one more group's units below 2^bits.

    Returns (ids, counts): the new ids number the distinct pairs (id,
    units) in sorted order, and counts[s] columns have new id s.  A
    dense tally of the count << bits keys up to the slice length or a
    chunk, whichever is larger; a sort beyond that."""
    key = ids << bits
    key |= units
    size = count << bits
    if size > max(len(key), 1 << _BLOCK_BITS):
        # np.unique(key, return_inverse=True) in a third of its memory.
        order = np.argsort(key)
        key = key[order]
        first = np.empty(len(key), dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        del key
        ids = np.empty_like(order)
        ids[order] = np.cumsum(first) - 1
        return ids, np.diff(np.flatnonzero(first), append=len(first))
    tally = np.bincount(key, minlength=size)
    keys = np.flatnonzero(tally)
    new = np.empty(size, dtype=np.intp)
    new[keys] = np.arange(len(keys))
    return np.take(new, key), tally[keys]


def _signatures(
    circuit: Circuit, program: _Program
) -> Iterator[tuple[int, np.ndarray, np.ndarray, Iterator[tuple[int, np.ndarray]]]]:
    """(start, ids, counts, chunks) for each slice of 2^_SLICE_BITS
    graph basis states, in ascending start.  Graph basis state start + c
    has signature ids[c], counts[s] of them have signature s, and chunks
    yields (s0, rows): rows[r, i] is the final amplitude of estimation
    value r and every graph basis state of signature s0 + i.

    Phase terms are grouped by their estimation qubits E, and a graph
    basis state's signature is its phase units in every group.  All
    groups' units are built at once by subset doubling over the graph
    qubits below the slice, as in invariant._edge_counts: a term on at
    most two graph qubits joins when its top qubit is doubled in, one
    popcount per mask of partners, and a term on three or more goes
    through _ones_view.  Terms on graph qubits above the slice are
    gated against start.  The groups then refine the signature ids one
    at a time (_relabel)."""
    n = circuit.n_graph
    cb = min(n, _SLICE_BITS)
    low = np.arange(1 << cb, dtype=np.uint32)
    bits, mask = program.bits, np.uint16((1 << program.bits) - 1)
    # (group, units, partner bit) entries: doubled[v] join as graph qubit
    # v is doubled in, gated[high] when start has every qubit of high,
    # and views[below, high] add through _ones_view(cols, below).
    est_of: dict[tuple[int, ...], int] = {}
    doubled: dict = {}
    gated: dict = {}
    views: dict = {}
    for qubits, k in program.terms:
        g = est_of.setdefault(tuple(q - n for q in qubits if q >= n), len(est_of))
        below = tuple(q for q in qubits if q < cb)
        high = sum(1 << q for q in qubits if cb <= q < n)
        if not high and 1 <= len(below) <= 2:
            doubled.setdefault(below[-1], []).append((g, k, sum(1 << q for q in below[:-1])))
        elif high and len(below) <= 1:
            gated.setdefault(high, []).append((g, k, sum(1 << q for q in below)))
        else:
            views.setdefault((below, high), []).append((g, k, 0))
    groups = len(est_of)
    doubled = {v: _by_mask(e, groups) for v, e in doubled.items()}
    gated = {high: _by_mask(e, groups) for high, e in gated.items()}
    views = {key: _by_mask(e, groups)[0] for key, e in views.items()}
    # base[c, g]: group g's units of column c from the ungated terms.
    base = np.zeros((1 << cb, groups), dtype=np.uint16)
    for v in range(cb):
        h = 1 << v
        base[h : 2 * h] = base[:h]
        if v in doubled:
            _add_linear(base[h : 2 * h], doubled[v], low[:h])
    for (below, high), vec in views.items():
        if not high:
            _ones_view(base, below)[...] += vec
    base &= mask
    table = np.exp(2j * math.pi / (1 << bits) * np.arange(1 << bits))
    table *= 2.0 ** (-circuit.width / 2)

    def signature_slice(start: int):
        cols = base
        if start:  # slice 0 has no qubit above it set: no gated term joins
            cols = base.copy()
            # One popcount per mask, however many gated terms share it.
            active: dict[int, np.ndarray] = {}
            for high, terms in gated.items():
                if start & high == high:
                    for m, vec in terms.items():
                        active[m] = active.get(m, 0) + vec
            _add_linear(cols, active, low)
            for (below, high), vec in views.items():
                if high and start & high == high:
                    _ones_view(cols, below)[...] += vec
            cols &= mask
        ids = np.zeros(1 << cb, dtype=np.intp)
        counts = np.array([1 << cb])
        rep = np.zeros(1, dtype=np.intp)  # a column of each signature
        for g in range(groups):
            u = cols[:, g]
            # A group that the signature already determines (in phase
            # estimation, every group after the first) leaves it as is.
            if not (np.take(u[rep], ids) == u).all():
                ids, counts = _relabel(ids, len(counts), u, bits)
                rep = np.empty(len(counts), dtype=np.intp)
                rep[ids] = np.arange(len(ids))
        return start, ids, counts, _rows(circuit, program, table, est_of, cols[rep])

    # One call per slice, so nothing of a slice but what it returns
    # outlives it.
    return map(signature_slice, range(0, 1 << n, 1 << cb))


def _rows(
    circuit: Circuit,
    program: _Program,
    table: np.ndarray,
    est_of: dict[tuple[int, ...], int],
    units: np.ndarray,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yields (s0, rows) for the signatures of units (units[s, g] is
    group g's phase units of signature s), about 2^_BLOCK_BITS
    amplitudes at a time: rows[r, i] is the final amplitude of
    estimation value r for signature s0 + i.

    Row r's phase index sums the groups with E in r's bits, by subset
    doubling over the estimation bits: a group joins when its top bit's
    half is built, and later halves copy it.  One lookup in table, then
    the FFT along the rows if the program has the inverse-QFT tail."""
    t = circuit.n_est
    step = max(1, (1 << _BLOCK_BITS) >> t)
    for s0 in range(0, len(units), step):
        part = units[s0 : s0 + step]
        idx = np.empty((1 << t, len(part)), dtype=np.uint16)
        idx[0] = part[:, est_of[()]] if () in est_of else 0
        for j in range(t):
            h = 1 << j
            np.add(idx[:h], part[:, est_of[(j,)]] if (j,) in est_of else 0, out=idx[h : 2 * h])
            for est, g in est_of.items():
                if len(est) > 1 and est[-1] == j:
                    _ones_view(idx[h : 2 * h], est[:-1])[...] += part[:, g]
        idx &= np.uint16((1 << program.bits) - 1)
        # Every index is below len(table): "clip" skips the bounds check.
        rows = np.take(table, idx, mode="clip")
        if program.fft_tail:
            np.fft.fft(rows, axis=0, norm="ortho", out=rows)
        yield s0, rows


def run(circuit: Circuit) -> Statevector:
    """Simulate from |0...0>, returning the final statevector, written
    slice by slice from the rows of each slice's signatures.

    Raises InputError unless circuit is of the phase-estimation shape,
    and ResourceLimitError before allocating when the width exceeds
    HARD_MAX_QUBITS or peak_bytes exceeds MemAvailable.
    """
    if circuit.width > HARD_MAX_QUBITS:
        raise ResourceLimitError(
            f"circuit width {circuit.width} exceeds the {HARD_MAX_QUBITS}-qubit limit"
        )
    program = _compile(circuit)
    need = peak_bytes(circuit)
    available = _mem_available()
    if available is not None and need > available:
        raise ResourceLimitError(
            f"circuit width {circuit.width} needs about {need / 2**20:.1f} MiB, "
            f"only {available / 2**20:.1f} MiB available"
        )
    state = Statevector(circuit.width, np.empty(1 << circuit.width, dtype=np.complex128))
    block = state.amps.reshape(1 << circuit.n_est, -1)
    for start, ids, counts, chunks in _signatures(circuit, program):
        rows = np.empty((len(block), len(counts)), dtype=np.complex128)
        for s0, part in chunks:
            rows[:, s0 : s0 + part.shape[1]] = part
        # Row by row, so each gather writes a contiguous run in place.
        for r in range(len(rows)):
            np.take(rows[r], ids, out=block[r, start : start + len(ids)], mode="clip")
        del rows  # before the next slice's signatures are built
    norm = state.norm_sq()
    if abs(norm - 1.0) > 1e-9:
        raise InternalCheckError(f"norm drifted to {norm!r} after {len(circuit.gates)} gates")
    return state


def readout(circuit: Circuit) -> np.ndarray:
    """`marginal` of circuit.est_register after running circuit.

    Adds up |rows|^2 weighted by how many graph basis states share each
    signature, so it never holds the statevector and needs no memory
    admission; its time grows as 2^n_graph.  Raises ResourceLimitError
    when the graph register exceeds graphs.MAX_VERTICES qubits or the
    estimation register HARD_MAX_QUBITS, InputError unless circuit is of
    the phase-estimation shape, and InternalCheckError unless the total
    mass is within 1e-9 of 1."""
    if not circuit.n_est:
        raise InputError("empty measurement register")
    if circuit.n_graph > MAX_VERTICES or circuit.n_est > HARD_MAX_QUBITS:
        raise ResourceLimitError(
            f"registers of {circuit.n_graph} graph and {circuit.n_est} estimation "
            f"qubits exceed the {MAX_VERTICES}-vertex or {HARD_MAX_QUBITS}-qubit limit"
        )
    program = _compile(circuit)
    probs = np.zeros(1 << circuit.n_est)
    for _, _, counts, chunks in _signatures(circuit, program):
        for s0, rows in chunks:
            probs += (np.abs(rows) ** 2) @ counts[s0 : s0 + rows.shape[1]]
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise InternalCheckError(f"read-out mass drifted to {total!r}")
    probs[probs < 1e-12] = 0.0
    return probs


def marginal(state: Statevector, register: tuple[int, ...]) -> np.ndarray:
    """Measurement distribution of the given qubits, all others traced
    out: probs[x] for outcome x, whose bit p comes from register[p].
    Probabilities below 1e-12 are clamped to zero."""
    k = len(register)
    if k == 0:
        raise InputError("empty measurement register")
    if len(set(register)) != k:
        raise InputError(f"duplicate qubits in register {register}")
    for q in register:
        _check_qubit(state, q)
    n = state.n_qubits
    # Axis n-1-q of the C-order cube is qubit q.  With register[k-1]
    # moved to the front and register[0] to axis k-1, the flat index of
    # what is left after summing out the other axes is the outcome.
    cube = (np.abs(state.amps) ** 2).reshape((2,) * n)
    front = np.moveaxis(cube, [n - 1 - q for q in reversed(register)], range(k))
    probs = front.sum(axis=tuple(range(k, n))).reshape(-1)
    probs[probs < 1e-12] = 0.0
    return probs


def sample(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """How often each outcome of probs (as `readout` returns) is drawn
    in shots inverse-CDF draws, _SHOT_CHUNK at a time.

    PCG64 with an explicit seed; identical (probs, shots, seed) give
    identical counts on any platform and for any chunk size.
    """
    if shots < 1:
        raise InputError(f"shots must be positive, got {shots}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    cdf = np.cumsum(probs)
    total = cdf[-1]
    if abs(total - 1.0) > 1e-9:
        raise InternalCheckError(f"marginal mass {total!r} is not 1")
    cdf /= total
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = np.zeros(len(probs), dtype=np.int64)
    for done in range(0, shots, _SHOT_CHUNK):
        draws = rng.random(min(_SHOT_CHUNK, shots - done))
        outcomes = np.searchsorted(cdf, draws, side="right")
        counts += np.bincount(outcomes, minlength=len(probs))
    return counts


def phase_table(state: Statevector, theta: float, atol: float = 1e-6) -> dict[int, int]:
    """Rotation counts of a diagonal-evolution state.

    For each nonzero amplitude, returns the integer k with
    arg(amp) = k * theta (mod 2*pi).  Raises InternalCheckError if any
    amplitude's phase is farther than atol from every such multiple.
    """
    if theta <= 0:
        raise InputError(f"theta must be positive, got {theta}")
    idx = np.nonzero(np.abs(state.amps) > 1e-12)[0]
    angles = np.mod(np.angle(state.amps[idx]), math.tau)
    # rint picks the nearest multiple, so the residual is <= theta/2;
    # k == 2*pi/theta is folded back to 0 below.
    ks = np.rint(angles / theta).astype(np.int64)
    bad = np.abs(angles - ks * theta) > atol
    if np.any(bad):
        first = int(idx[bad][0])
        raise InternalCheckError(
            f"amplitude {first} phase {float(angles[bad][0])!r} is not a "
            f"multiple of theta={theta!r} within {atol}"
        )
    table: dict[int, int] = {}
    full = round(math.tau / theta) if abs(math.tau / theta - round(math.tau / theta)) < 1e-9 else 0
    for i, k in zip(idx, ks):
        kk = int(k)
        if full and kk == full:
            kk = 0
        table[int(i)] = kk
    return table


def dump_amplitudes(state: Statevector, fh: TextIO) -> None:
    """Write the amplitudes with |amp| > 1e-12 to fh as the JSON
    {"qubits": w, "amplitudes": [[index, re, im], ...]}, in ascending
    index, 2^_BLOCK_BITS amplitudes at a time."""
    fh.write(f'{{"qubits": {state.n_qubits}, "amplitudes": [')
    sep = ""
    step = 1 << _BLOCK_BITS
    for start in range(0, len(state.amps), step):
        chunk = state.amps[start : start + step]
        idx = np.flatnonzero(np.abs(chunk) > 1e-12)
        kept = chunk[idx]
        for i, re, im in zip((idx + start).tolist(), kept.real.tolist(), kept.imag.tolist()):
            fh.write(f"{sep}[{i}, {re!r}, {im!r}]")
            sep = ", "
    fh.write("]}")
