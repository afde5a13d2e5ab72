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
register alone, so a slab (all 2^t estimation rows of a run of graph
basis states) evolves on its own.  `_slabs` yields the final slabs one
at a time, which `readout` sums into the estimation-register marginal
and `run` writes into the statevector.  Only `run` holds all 2^w
amplitudes, so `peak_bytes` estimates `run` alone.

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

# Widest circuit run, readout and init_state accept: only they allocate
# amplitudes (16 B each in run, 4 GiB at 28 qubits) or do 2^w work.
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
# Slabs and dump chunks hold about 2^_BLOCK_BITS amplitudes, so their
# temporaries stay in cache and small at any width.
_BLOCK_BITS = 16
# `sample` draws its shots this many at a time.
_SHOT_CHUNK = 1 << 20

# Bytes at the peak of `run`: the complex128 amplitudes plus, per block
# element, a slab's uint16 index, intp cast and complex128 lookup.
_AMP_BYTES = 16
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
    amplitudes plus the temporaries of one slab."""
    w = circuit.width
    return (_AMP_BYTES << w) + (_BLOCK_TEMP_BYTES << min(w, _BLOCK_BITS))


def _check_width(circuit: Circuit) -> None:
    if circuit.width > HARD_MAX_QUBITS:
        raise ResourceLimitError(
            f"circuit width {circuit.width} exceeds the {HARD_MAX_QUBITS}-qubit limit"
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


def _slabs(circuit: Circuit, program: _Program) -> Iterator[tuple[int, np.ndarray]]:
    """Yields (start, slab) in ascending start: slab[r, c] is the final
    amplitude of estimation value r and graph basis state start + c, for
    2^t rows and 2^cb columns, about 2^_BLOCK_BITS amplitudes in all.

    Phase terms are grouped by their estimation qubits E; a group's
    column units come from its graph qubits below cb, gated on the ones
    above against start.  Row r's phase index sums the groups with E in
    r's bits, by subset doubling over the estimation bits: a group joins
    when its top bit's half is built, and later halves copy it."""
    n, t = circuit.n_graph, circuit.n_est
    cb = max(0, min(n, _BLOCK_BITS - t))
    cols = 1 << cb
    # estimation bits -> graph qubits below cb -> [(mask of the rest, units)]
    groups: dict[tuple[int, ...], dict[tuple[int, ...], list[tuple[int, int]]]] = {}
    for qubits, k in program.terms:
        est = tuple(q - n for q in qubits if q >= n)
        low = tuple(q for q in qubits if q < cb)
        high = sum(1 << q for q in qubits if cb <= q < n)
        groups.setdefault(est, {}).setdefault(low, []).append((high, k))
    # Each group's units: the ungated terms once, in base; per slab, the
    # gated ones through views of the group's units fixed here.
    units: dict[tuple[int, ...], np.ndarray] = {}
    base, gated = {}, []
    for est, split in groups.items():
        u = units[est] = np.zeros(cols, dtype=np.uint16)
        for low, parts in split.items():
            view = _ones_view(u, low)
            view += np.uint16(sum(k for high, k in parts if not high) % (1 << _PHASE_BITS))
            if any(high for high, _ in parts):
                gated.append((view, [(high, k) for high, k in parts if high]))
        base[est] = u.copy()
    table = np.exp(2j * math.pi / (1 << program.bits) * np.arange(1 << program.bits))
    table *= 2.0 ** (-circuit.width / 2)
    idx = np.empty((1 << t, cols), dtype=np.uint16)
    for start in range(0, 1 << n, cols):
        for est, u in units.items():
            u[...] = base[est]
        for view, parts in gated:
            k = sum(k for high, k in parts if start & high == high) % (1 << _PHASE_BITS)
            if k:
                view += np.uint16(k)
        idx[0] = units.get((), 0)
        for j in range(t):
            h = 1 << j
            np.add(idx[:h], units.get((j,), 0), out=idx[h : 2 * h])
            for est, u in units.items():
                if len(est) > 1 and est[-1] == j:
                    _ones_view(idx[h : 2 * h], est[:-1])[...] += u
        idx &= np.uint16((1 << program.bits) - 1)
        # Every index is below len(table): "clip" skips the bounds check.
        slab = np.take(table, idx, mode="clip")
        if program.fft_tail:
            np.fft.fft(slab, axis=0, norm="ortho", out=slab)
        yield start, slab


def run(circuit: Circuit) -> Statevector:
    """Simulate from |0...0>, returning the final statevector, written
    slab by slab.

    Raises InputError unless circuit is of the phase-estimation shape,
    and ResourceLimitError before allocating when the width exceeds
    HARD_MAX_QUBITS or peak_bytes exceeds MemAvailable.
    """
    _check_width(circuit)
    program = _compile(circuit)
    need = peak_bytes(circuit)
    available = _mem_available()
    if available is not None and need > available:
        raise ResourceLimitError(
            f"circuit width {circuit.width} needs about {need / 2**20:.1f} MiB, "
            f"only {available / 2**20:.1f} MiB available"
        )
    state = Statevector(circuit.width, np.empty(1 << circuit.width, dtype=np.complex128))
    rows = state.amps.reshape(1 << circuit.n_est, -1)
    for start, slab in _slabs(circuit, program):
        rows[:, start : start + slab.shape[1]] = slab
    norm = state.norm_sq()
    if abs(norm - 1.0) > 1e-9:
        raise InternalCheckError(f"norm drifted to {norm!r} after {len(circuit.gates)} gates")
    return state


def readout(circuit: Circuit) -> np.ndarray:
    """`marginal` of circuit.est_register after running circuit.

    Adds up each slab's |amp|^2 by row, so it holds one slab at any
    width and needs no memory admission; its time grows as 2^w.
    Raises ResourceLimitError when the width exceeds HARD_MAX_QUBITS,
    InputError unless circuit is of the phase-estimation shape, and
    InternalCheckError unless the total mass is within 1e-9 of 1."""
    _check_width(circuit)
    if not circuit.n_est:
        raise InputError("empty measurement register")
    program = _compile(circuit)
    probs = np.zeros(1 << circuit.n_est)
    for _, slab in _slabs(circuit, program):
        probs += (np.abs(slab) ** 2).sum(axis=1)
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
