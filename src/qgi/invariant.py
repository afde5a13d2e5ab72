"""The edge-count histogram invariant and its classical companions.

The invariant of a graph is the vector counts[0..m] where counts[k] is
the number of vertex subsets inducing exactly k edges.  It can be read
off a phase-estimation circuit (quantum_histogram) or computed by a
brute-force subset sweep (classical_histogram); both must agree
exactly.  char_poly provides the classical spectral invariant used for
comparison, exact in int64 for every graph the sweep accepts.

Every subset sweep reads induced edge counts from one kernel,
_edge_counts: one O(2^n) single-threaded pass in slices of 2^18 masks,
so its temporaries stay small at any n.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .circuit import PrecisionPlan, build_qpe, plan_precision
from .errors import InputError, InternalCheckError
from .graphs import Graph, Permutation, induced_edge_count
from .simulator import readout, sample

# The edge-count kernel yields 2^_SLICE_BITS masks at a time.
_SLICE_BITS = 18


@dataclass(frozen=True)
class EdgeHistogram:
    """counts[k] = number of vertex subsets inducing exactly k edges."""

    n: int
    m: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.m + 1:
            raise InternalCheckError(
                f"histogram length {len(self.counts)} != m+1 = {self.m + 1}"
            )
        if any(c < 0 for c in self.counts):
            raise InternalCheckError("negative histogram entry")
        if sum(self.counts) != 1 << self.n:
            raise InternalCheckError(
                f"histogram sums to {sum(self.counts)}, expected {1 << self.n}"
            )
        # Subsets inducing all m edges are the full set plus any subset
        # of the isolated vertices, so this is 2^(isolated count) >= 1.
        if self.counts[self.m] < 1:
            raise InternalCheckError("the full vertex set induces all m edges")
        if self.counts[0] < self.n + 1:
            raise InternalCheckError("empty and singleton subsets all induce 0 edges")

    @property
    def probabilities(self) -> tuple[float, ...]:
        scale = 1.0 / (1 << self.n)
        return tuple(c * scale for c in self.counts)


@dataclass(frozen=True)
class CharPoly:
    """Characteristic polynomial of the adjacency matrix, exact integer
    coefficients, leading first: coeffs[k] multiplies x^(n-k)."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[0] != 1:
            raise InternalCheckError("characteristic polynomial must be monic")


@dataclass(frozen=True)
class QpeOutcome:
    """Result of the quantum path: exact histogram, or raw shot data.

    probabilities are the estimation-register outcome probabilities for
    edge counts 0..m (exact mode: pre-rounding values; shot mode:
    empirical frequencies).
    """

    source: str
    plan: PrecisionPlan
    histogram: EdgeHistogram | None
    probabilities: tuple[float, ...]
    shot_counts: tuple[int, ...] | None = None


def _edge_counts(g: Graph) -> Iterator[tuple[int, np.ndarray]]:
    """Induced edge count of every subset mask, in ascending slices.

    Yields (start, e) where e[i] (uint16) is the edge count induced by
    mask start + i; the slices cover 0 .. 2^n - 1 in order.  The counts
    of the low _SLICE_BITS vertices are built once by subset doubling,
    e(S + {k}) = e(S) + |adj[k] & S| for S below k.  A slice adds the
    edges among its fixed high vertices, then one popcount pass per
    high vertex for its edges into the low part.
    """
    bits = min(g.n, _SLICE_BITS)
    low = np.arange(1 << bits, dtype=np.uint32)
    base = np.zeros(1 << bits, dtype=np.uint16)
    for k in range(1, bits):
        half = 1 << k
        base[half : 2 * half] = base[:half] + np.bitwise_count(low[:half] & g.adj[k])
    for start in range(0, 1 << g.n, 1 << bits):
        e = base + induced_edge_count(g, start)
        for v in range(bits, g.n):
            if start >> v & 1:
                e += np.bitwise_count(low & g.adj[v])
        yield start, e


def classical_histogram(g: Graph) -> EdgeHistogram:
    """Brute-force oracle: sweep all 2^n subsets and tally edge counts."""
    counts = np.zeros(g.m + 1, dtype=np.int64)
    for _, e in _edge_counts(g):
        counts += np.bincount(e, minlength=g.m + 1)
    return EdgeHistogram(n=g.n, m=g.m, counts=tuple(int(c) for c in counts))


def quantum_histogram(g: Graph, shots: int | None = None, seed: int = 0) -> QpeOutcome:
    """Read the invariant off the phase-estimation circuit.

    Exact mode (shots=None) converts outcome probabilities p(x) to
    integer subset counts p(x) * 2^n, verifying each is within 1e-6 of
    an integer and that outcomes above m have zero mass.  Shot mode
    reports sampled per-outcome counts without conversion.  In exact
    mode an edgeless graph short-circuits to the trivial histogram
    [2^n]; shot mode samples its circuit like any other.  The circuit is
    the fused one: it compiles to the same phase program as the paper's
    repeated oracle powers, in fewer gates.  Both modes read the
    estimation register with `readout`, which builds the rows of the at
    most m + 1 column signatures, never the 2^w statevector, so no width
    cap applies: every graph the sweep accepts runs, the complete graph
    on 24 vertices (width 33) included.
    """
    plan = plan_precision(g.m)
    if g.m == 0 and shots is None:
        hist = EdgeHistogram(n=g.n, m=0, counts=(1 << g.n,))
        return QpeOutcome("qpe-exact", plan, hist, (1.0,))
    circuit = build_qpe(g, fuse=True)
    probs = readout(circuit)
    if shots is None:
        scaled = probs * (1 << g.n)
        rounded = np.rint(scaled)
        off = np.abs(scaled - rounded)
        if np.any(off > 1e-6):
            x = int(np.argmax(off))
            raise InternalCheckError(
                f"outcome {x} mass {scaled[x]!r}/2^n is not an integer count"
            )
        counts = rounded.astype(np.int64)
        if np.any(counts[g.m + 1 :] != 0):
            raise InternalCheckError("nonzero probability beyond m edges")
        hist = EdgeHistogram(n=g.n, m=g.m, counts=tuple(int(c) for c in counts[: g.m + 1]))
        return QpeOutcome("qpe-exact", plan, hist, tuple(float(x) for x in probs[: g.m + 1]))
    tallies = sample(probs, shots=shots, seed=seed)
    if tallies[g.m + 1 :].any():
        raise InternalCheckError("sampled an outcome beyond m edges")
    counts = tuple(int(c) for c in tallies[: g.m + 1])
    freqs = tuple(c / shots for c in counts)
    return QpeOutcome("qpe-shots", plan, None, freqs, shot_counts=counts)


def invariant_equal(g1: Graph, g2: Graph) -> bool:
    """True iff both graphs have identical edge-count histograms."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    h1 = classical_histogram(g1)
    h2 = classical_histogram(g2)
    return h1.counts == h2.counts


def char_poly(g: Graph) -> CharPoly:
    """Characteristic polynomial det(xI - A) by the Faddeev-LeVerrier
    recurrence, exact in int64.

    M_k are the coefficients of adj(xI - A).  Each entry is a sum of at
    most C(n-1, j) j x j minors of the 0/1 matrix A, so by Hadamard's
    bound it stays below 2e11 at n <= 24; entries of A @ M_k stay below
    5e12 and every trace below 1.1e14, far under 2^63.
    """
    n = g.n
    a = (np.array(g.adj, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    mat = eye = np.eye(n, dtype=np.int64)
    coeffs = [1]
    for k in range(1, n + 1):
        am = a @ mat
        trace = int(np.trace(am))
        if trace % k:
            raise InternalCheckError(f"trace {trace} not divisible by {k}")
        c = -(trace // k)
        coeffs.append(c)
        mat = am + c * eye
    if coeffs[1] != 0:
        raise InternalCheckError("adjacency trace must vanish")
    return CharPoly(coeffs=tuple(coeffs))


def spectra_equal(g1: Graph, g2: Graph) -> bool:
    """True iff both adjacency matrices are cospectral."""
    if g1.n != g2.n:
        return False
    return char_poly(g1).coeffs == char_poly(g2).coeffs


def prop1_check(g1: Graph, g2: Graph, perm: Permutation) -> bool:
    """Verify that perm preserves induced edge counts on every subset:
    e_G1(s) == e_G2(perm(s)) for all 2^n subsets s."""
    if g1.n != g2.n:
        raise InputError("graphs must have equal vertex counts")
    n = g1.n
    if sorted(perm) != list(range(n)):
        raise InputError(f"not a permutation of 0..{n - 1}: {perm}")
    # e_G2(perm(s)) is the count of s in G2 relabelled by perm's inverse.
    inverse = [0] * n
    for i, p in enumerate(perm):
        inverse[p] = i
    pulled = _edge_counts(g2.permuted(tuple(inverse)))
    return all(np.array_equal(a, b) for (_, a), (_, b) in zip(_edge_counts(g1), pulled))


def max_independent_set(g: Graph) -> tuple[int, int]:
    """Largest subset inducing zero edges, via the same subset sweep.

    Returns (size, mask); ties broken by the numerically smallest mask.
    """
    best_size = -1
    best_mask = 0
    for start, e in _edge_counts(g):
        zero = np.flatnonzero(e == 0)
        if zero.size == 0:
            continue
        # argmax picks the smallest mask of the largest size; slices
        # ascend, so a later slice wins only with a strictly larger set.
        sizes = np.bitwise_count(zero)
        top = int(np.argmax(sizes))
        size = int(sizes[top]) + start.bit_count()
        if size > best_size:
            best_size, best_mask = size, start + int(zero[top])
    return best_size, best_mask

