"""The edge-count histogram invariant and its classical companions.

The invariant of a graph is the vector counts[0..m] where counts[k] is
the number of vertex subsets inducing exactly k edges.  It can be read
off the phase program of the precision plan, which the phase-estimation
circuit compiles to (quantum_histogram), or computed by a brute-force
subset sweep (classical_histogram); both must agree exactly.  char_poly
provides the classical spectral invariant used for comparison, exact in
int64 for every graph the sweep accepts.

max_independent_set sweeps graphs._edge_counts, the slices of the one
edge-count kernel, which the QPE simulator shares; classical_histogram
reads graphs._edge_tally, which tallies keyed slices of that kernel and
folds its paired lowest-degree vertices back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import PrecisionPlan, plan_precision
from .errors import InputError, InternalCheckError
from .graphs import Graph, Permutation, _edge_counts, _edge_tally
from .simulator import _qpe_program, _readout, sample

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


def classical_histogram(g: Graph) -> EdgeHistogram:
    """Brute-force oracle: sweep all 2^n subsets and tally edge counts."""
    counts = _edge_tally(g)
    return EdgeHistogram(n=g.n, m=g.m, counts=tuple(int(c) for c in counts))


def quantum_histogram(g: Graph, shots: int | None = None, seed: int = 0) -> QpeOutcome:
    """Read the invariant off the phase-estimation program of g's plan.

    Exact mode (shots=None) converts outcome probabilities p(x) to
    integer subset counts p(x) * 2^n, verifying each is within 1e-6 of
    an integer and that outcomes above m have zero mass.  Shot mode
    reports sampled per-outcome counts without conversion.  In exact
    mode an edgeless graph short-circuits to the trivial histogram
    [2^n]; shot mode samples its program like any other.  No circuit
    is built: both modes read out the plan's program, what the QPE
    circuit (fused or not) compiles to.  `_readout` builds its (2^t, m + 1)
    matrix of rows once and weights it by the sweep kernel's tally of
    edge counts, never the 2^w statevector, so no width cap applies:
    every graph the sweep accepts runs, K24 (width 33) included.
    """
    plan = plan_precision(g.m)
    if g.m == 0 and shots is None:
        hist = EdgeHistogram(n=g.n, m=0, counts=(1 << g.n,))
        return QpeOutcome("qpe-exact", plan, hist, (1.0,))
    probs = _readout(_qpe_program(g, plan.t))
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
    """Whether e_G1(s) == e_G2(perm(s)) on all 2^n vertex subsets s: the
    paper's Proposition 1 for a witness.  On s = {i, j} the counts say
    whether (i, j) and (perm[i], perm[j]) are edges, and edges decide
    every count, so one relabel of G1's rows decides all 2^n."""
    if g1.n != g2.n:
        raise InputError("graphs must have equal vertex counts")
    return g1.permuted(perm).adj == g2.adj


def max_independent_set(g: Graph) -> tuple[int, int]:
    """Largest subset inducing zero edges, via the same subset sweep.

    Returns (size, mask); ties broken by the numerically smallest mask.
    Library API: a second use of the subset sweep.
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

