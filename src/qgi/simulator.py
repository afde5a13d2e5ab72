"""Dense statevector simulation of phase-oracle circuits.

Amplitude indexing is little-endian: qubit i is bit i of the state
index, so a graph-register basis state IS the vertex-subset mask.

A circuit of the phase-estimation shape is compiled whole before any
amplitude is touched:
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
and `run` writes into the statevector.
Any other circuit runs gate by gate through `apply_gate`, the reference
that the tests compare `run` against.  It works in place on reshaped
views; H needs a temporary of the array's size and swap half of it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circuit import HARD_MAX_QUBITS, Circuit, Gate, _shifted, inverse_qft
from .errors import InputError, InternalCheckError, ResourceLimitError

# Default runtime ceiling; callers may raise it up to HARD_MAX_QUBITS.
DEFAULT_MAX_QUBITS = 24

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


# A phase run accumulates turns in units of 2^-T with T <= _PHASE_BITS,
# so the integer phase index of every basis state fits in a uint16.
_PHASE_BITS = 16
_PHASE_KINDS = ("p", "cp", "ccp")
# Slabs and marginal chunks hold about 2^_BLOCK_BITS amplitudes, so their
# temporaries stay in cache and small at any width.
_BLOCK_BITS = 16
# `sample` draws its shots this many at a time.
_SHOT_CHUNK = 1 << 20

# Bytes at the peak of `run` and `marginal`: the complex128 amplitudes
# plus the largest temporary, a copy that apply_gate makes, or per block
# element a slab's uint16 index, intp cast and complex128 lookup.
_AMP_BYTES = 16
_GATE_TEMP_BYTES = {"h": 16, "swap": 8}
_BLOCK_TEMP_BYTES = 2 + 8 + 16


@dataclass(frozen=True)
class _PhaseRun:
    """Merged phase gates: (sorted qubits, phase in units of 2^-bits
    turns) per qubit set, each applied to the basis states with all of
    those qubits set."""

    bits: int
    terms: tuple[tuple[tuple[int, ...], int], ...]


@dataclass(frozen=True)
class _Program:
    """A compiled circuit: the uniform state times the phases of one
    run, then an inverse QFT on the estimation register if fft_tail."""

    phases: _PhaseRun
    fft_tail: bool


def _dyadic_bits(turns: Fraction) -> int | None:
    """Bits of the power-of-two denominator of turns, None if not dyadic."""
    den = turns.denominator
    return den.bit_length() - 1 if den & (den - 1) == 0 else None


def _phase_run(gates: tuple[Gate, ...]) -> _PhaseRun | None:
    """The gates merged into one run, None unless every gate is a phase
    gate with dyadic turns of at most _PHASE_BITS bits."""
    # Exact sums of the turns per qubit set, in units of 2^-_PHASE_BITS.
    merged: dict[tuple[int, ...], int] = {}
    for gate in gates:
        bits = _dyadic_bits(gate.turns) if gate.kind in _PHASE_KINDS else None
        if bits is None or bits > _PHASE_BITS:
            return None
        key = tuple(sorted(gate.qubits))
        units = gate.turns.numerator << (_PHASE_BITS - bits)
        merged[key] = (merged.get(key, 0) + units) % (1 << _PHASE_BITS)
    merged = {key: units for key, units in merged.items() if units}
    # The coarsest unit that still expresses every merged phase.
    shift = min(((units & -units).bit_length() - 1 for units in merged.values()), default=0)
    terms = tuple((key, units >> shift) for key, units in merged.items())
    return _PhaseRun(_PHASE_BITS - shift if terms else 0, terms)


@functools.lru_cache(maxsize=32)
def _iqft_tail(n_graph: int, n_est: int) -> tuple[Gate, ...]:
    return _shifted(inverse_qft(n_est), n_graph)


def _compile(circuit: Circuit) -> _Program | None:
    """The program of a circuit of the phase-estimation shape: an H on
    every qubit as its first gates, in any order, then only phase gates
    that fit a phase run, then optionally the inverse QFT on the
    estimation register.  None for any other circuit."""
    w = circuit.width
    gates = circuit.gates
    if {g.qubits[0] for g in gates[:w] if g.kind == "h"} != set(range(w)):
        return None
    body = gates[w:]
    fft_tail = False
    if circuit.n_est:
        tail = _iqft_tail(circuit.n_graph, circuit.n_est)
        if body[-len(tail) :] == tail:
            fft_tail = True
            body = body[: -len(tail)]
    phases = _phase_run(body)
    return None if phases is None else _Program(phases, fft_tail)


def _need_bytes(circuit: Circuit, program: _Program | None) -> int:
    w = circuit.width
    temp = _BLOCK_TEMP_BYTES << min(w, _BLOCK_BITS)
    if program is None:
        gate = max((_GATE_TEMP_BYTES.get(g.kind, 0) for g in circuit.gates), default=0)
        temp = max(temp, gate << w)
    return (_AMP_BYTES << w) + temp


def peak_bytes(circuit: Circuit) -> int:
    """Estimated peak bytes of `run` on circuit followed by `marginal`.

    Counts the complex128 amplitudes and the largest temporary: the
    block temporaries of a slab or of a marginal chunk, or the copy of
    a gate that apply_gate runs.
    """
    return _need_bytes(circuit, _compile(circuit))


def _check_width(circuit: Circuit, max_qubits: int) -> None:
    if max_qubits > HARD_MAX_QUBITS:
        raise ResourceLimitError(f"max_qubits {max_qubits} exceeds hard limit {HARD_MAX_QUBITS}")
    if circuit.width > max_qubits:
        raise ResourceLimitError(f"circuit width {circuit.width} exceeds limit {max_qubits}")


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
    step = program.phases
    cb = max(0, min(n, _BLOCK_BITS - t))
    cols = 1 << cb
    # estimation bits -> graph qubits below cb -> [(mask of the rest, units)]
    groups: dict[tuple[int, ...], dict[tuple[int, ...], list[tuple[int, int]]]] = {}
    for qubits, k in step.terms:
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
    table = np.exp(2j * math.pi / (1 << step.bits) * np.arange(1 << step.bits))
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
        idx &= np.uint16((1 << step.bits) - 1)
        # Every index is below len(table): "clip" skips the bounds check.
        slab = np.take(table, idx, mode="clip")
        if program.fft_tail:
            np.fft.fft(slab, axis=0, norm="ortho", out=slab)
        yield start, slab


def run(circuit: Circuit, max_qubits: int = DEFAULT_MAX_QUBITS) -> Statevector:
    """Simulate from |0...0>, returning the final statevector.

    A circuit of the phase-estimation shape is written slab by slab,
    any other runs gate by gate through apply_gate.  Raises
    ResourceLimitError before allocating when the width exceeds
    max_qubits or peak_bytes exceeds the memory available.
    """
    _check_width(circuit, max_qubits)
    program = _compile(circuit)
    need = _need_bytes(circuit, program)
    available = _mem_available()
    if available is not None and need > available:
        raise ResourceLimitError(
            f"circuit width {circuit.width} needs about {need / 2**20:.1f} MiB, "
            f"only {available / 2**20:.1f} MiB available"
        )
    w = circuit.width
    if program is None:
        state = init_state(w)
        for gate in circuit.gates:
            apply_gate(state, gate)
    else:
        state = Statevector(w, np.empty(1 << w, dtype=np.complex128))
        rows = state.amps.reshape(1 << circuit.n_est, -1)
        for start, slab in _slabs(circuit, program):
            rows[:, start : start + slab.shape[1]] = slab
    norm = state.norm_sq()
    if abs(norm - 1.0) > 1e-9:
        raise InternalCheckError(f"norm drifted to {norm!r} after {len(circuit.gates)} gates")
    return state


def readout(circuit: Circuit, max_qubits: int = DEFAULT_MAX_QUBITS) -> np.ndarray:
    """`marginal` of circuit.est_register after running circuit.

    A compiled circuit adds up each slab's |amp|^2 by row, so it holds
    one slab at any width and needs no memory admission; any other is
    `marginal` of `run`.  Raises InternalCheckError unless the total
    mass is within 1e-9 of 1."""
    _check_width(circuit, max_qubits)
    if not circuit.n_est:
        raise InputError("empty measurement register")
    program = _compile(circuit)
    if program is None:
        return marginal(run(circuit, max_qubits=max_qubits), circuit.est_register)
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
    Probabilities below 1e-12 are clamped to zero.  Sums by chunks of
    2^_BLOCK_BITS amplitudes: the register qubits inside a chunk rank
    the outcomes it reaches, those above it fix an offset."""
    k = len(register)
    if k == 0:
        raise InputError("empty measurement register")
    if len(set(register)) != k:
        raise InputError(f"duplicate qubits in register {register}")
    for q in register:
        _check_qubit(state, q)
    bits = min(state.n_qubits, _BLOCK_BITS)
    inner = [(p, q) for p, q in enumerate(register) if q < bits]
    outer = [(p, q) for p, q in enumerate(register) if q >= bits]
    i = np.arange(1 << bits)
    rank = sum((((i >> q) & 1) << r for r, (_, q) in enumerate(inner)), np.zeros_like(i))
    j = np.arange(1 << len(inner))
    reach = sum((((j >> r) & 1) << p for r, (p, _) in enumerate(inner)), np.zeros_like(j))
    probs = np.zeros(1 << k)
    for start in range(0, len(state.amps), 1 << bits):
        chunk = state.amps[start : start + (1 << bits)]
        offset = sum(((start >> q) & 1) << p for p, q in outer)
        weights = chunk.real**2 + chunk.imag**2
        probs[reach + offset] += np.bincount(rank, weights=weights, minlength=len(reach))
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


def dump_amplitudes(state: Statevector) -> dict:
    """JSON-ready nonzero amplitudes as [index, real, imag] triples."""
    idx = np.nonzero(state.amps)[0]
    return {
        "qubits": state.n_qubits,
        "amplitudes": [
            [int(i), float(state.amps[i].real), float(state.amps[i].imag)] for i in idx
        ],
    }
