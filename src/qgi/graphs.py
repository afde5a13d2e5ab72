"""Simple undirected graphs as adjacency bitmasks.

Vertices are 0-indexed internally; vertex i corresponds to bit i (LSB
first) both in adjacency rows and in vertex-subset masks, so subset
masks double directly as basis-state indices on the graph register.
Graphs are immutable; every mutating-style operation returns a new
Graph.

_slice_tables and _slices are the one edge-count kernel: every subset
sweep and the QPE simulator read induced edge counts from its slices,
through _edge_counts, and _edge_tally is their histogram, whose keyed
slices (scaled edge counts plus vertex weights) the kernel also builds.
_pair_weights is the one labelling table: canonical codes
and _extension_codes, the survey's class enumeration, sum its rows.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import permutations
from math import prod
from numbers import Integral

import numpy as np

from .errors import GraphParseError, InputError, ResourceLimitError

# Hard limit on vertices: subset sweeps enumerate all 2^n masks.
MAX_VERTICES = 24
# Canonical codes minimize over all n! labelings of _pair_weights, a
# table of 4.5 MB at n=8 and 52 MB at n=9; the cap also keeps a code's
# n(n-1)/2 bits (28 at n=8) within uint32.
CANONICAL_MAX_VERTICES = 8
# Exact isomorphism search is intended for small inputs.
ISOMORPHISM_MAX_VERTICES = 10
# The edge-count kernel yields 2^_SLICE_BITS masks at a time.
_SLICE_BITS = 16
# _edge_tally pairs low-degree vertices while (m + 1) * prod(deg v + 1),
# its key range, stays within this, so each int64 bincount of a slice
# fits in 256 KiB.  Every doubling step, table entry and partial sum of
# a keyed slice is at most the key of some subset, so uint16 holds them.
_TALLY_BINS = 1 << 15

# A vertex subset is a plain bitmask: bit i set <=> vertex i included.
VertexSubset = int
# A permutation maps vertex i to p[i].
Permutation = tuple[int, ...]


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on n vertices.

    adj[i] is the neighborhood bitmask of vertex i.  No loops, and
    bit j of adj[i] always equals bit i of adj[j].
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_vertex_count(self.n)
        if len(self.adj) != self.n:
            raise InputError(f"expected {self.n} adjacency rows, got {len(self.adj)}")
        full = (1 << self.n) - 1
        try:
            for i, row in enumerate(self.adj):
                if row & ~full:
                    raise InputError(f"adjacency row {i} references vertices >= {self.n}")
                if (row >> i) & 1:
                    raise InputError(f"loop at vertex {i}")
        except TypeError:
            raise InputError(f"adjacency rows {self.adj!r} are not all integers") from None
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (self.adj[i] >> j) & 1 != (self.adj[j] >> i) & 1:
                    raise InputError(f"asymmetric adjacency between {i} and {j}")

    @cached_property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges (i, j) with i < j, sorted lexicographically."""
        return tuple(
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if (self.adj[i] >> j) & 1
        )

    def permuted(self, p: Permutation) -> Graph:
        """Relabel: vertex i becomes p[i]."""
        if sorted(p) != list(range(self.n)):
            raise InputError(f"not a permutation of 0..{self.n - 1}: {p}")
        return Graph(self.n, _relabel(self.adj, p))

    @staticmethod
    def from_edges(n: int, edges) -> Graph:
        """The graph on n vertices with the given (i, j) integer pairs.
        n is checked before the rows are allocated."""
        _check_vertex_count(n)
        adj = [0] * n
        try:
            for i, j in edges:
                if not (0 <= i < n and 0 <= j < n):
                    raise InputError(f"edge ({i}, {j}) out of range for n={n}")
                if i == j:
                    raise InputError(f"loop at vertex {i}")
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        except (TypeError, ValueError):
            raise InputError("edges must be pairs of integer vertices") from None
        return Graph(n, tuple(adj))


def _check_vertex_count(n: int) -> None:
    """InputError unless n is an integer in 1..MAX_VERTICES."""
    if not (isinstance(n, Integral) and 1 <= n <= MAX_VERTICES):
        raise InputError(f"vertex count {n} outside 1..{MAX_VERTICES}")


def _pair_order(n: int) -> list[tuple[int, int]]:
    # Column-major upper triangle: (0,1), (0,2), (1,2), (0,3), ...
    return [(i, j) for j in range(1, n) for i in range(j)]


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (short form, n <= 24).

    Accepts an optional ">>graph6<<" prefix.  Errors report the byte
    offset of the offending character within the stripped payload.
    """
    s = text.strip()
    if s.startswith(">>"):
        header = ">>graph6<<"
        if not s.startswith(header):
            raise GraphParseError(f"malformed header at byte 0: {s[:12]!r}")
        s = s[len(header):]
    if not s:
        raise GraphParseError("empty graph6 string (byte 0)")
    c0 = ord(s[0])
    if c0 == 126:
        # Long-form count prefix implies n >= 63.
        raise GraphParseError(
            f"byte 0: long-form vertex count not supported (n > {MAX_VERTICES})"
        )
    if not 63 <= c0 <= 125:
        raise GraphParseError(f"byte 0: character {s[0]!r} outside graph6 alphabet")
    n = c0 - 63
    if n < 1:
        raise GraphParseError("byte 0: vertex count must be at least 1")
    if n > MAX_VERTICES:
        raise GraphParseError(f"byte 0: vertex count {n} exceeds cap {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = s[1:]
    if len(body) < nchars:
        raise GraphParseError(
            f"byte {1 + len(body)}: truncated bit section "
            f"(need {nchars} characters, got {len(body)})"
        )
    if len(body) > nchars:
        raise GraphParseError(f"byte {1 + nchars}: unexpected trailing characters")
    bits = 0
    for k, ch in enumerate(body):
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise GraphParseError(f"byte {1 + k}: character {ch!r} outside graph6 alphabet")
        bits = (bits << 6) | v
    pad = 6 * nchars - nbits
    if pad and bits & ((1 << pad) - 1):
        raise GraphParseError(f"byte {nchars}: nonzero padding bits")
    return _from_pair_bits(n, bits >> pad)


def _from_pair_bits(n: int, bits: int) -> Graph:
    """The graph whose pairs, in _pair_order, are the n(n-1)/2 bits of
    bits, the first pair at the most significant bit."""
    nbits = n * (n - 1) // 2
    adj = [0] * n
    for k, (i, j) in enumerate(_pair_order(n)):
        if (bits >> (nbits - 1 - k)) & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def encode_graph6(g: Graph) -> str:
    """Encode as canonical short-form graph6."""
    nbits = g.n * (g.n - 1) // 2
    bits = 0
    for i, j in _pair_order(g.n):
        bits = (bits << 1) | ((g.adj[i] >> j) & 1)
    nchars = (nbits + 5) // 6
    bits <<= 6 * nchars - nbits
    chars = [chr(63 + g.n)]
    for k in range(nchars - 1, -1, -1):
        chars.append(chr(63 + ((bits >> (6 * k)) & 63)))
    return "".join(chars)


def parse_adjacency(text: str) -> Graph:
    """Parse a whitespace-separated 0/1 adjacency matrix, one row per line."""
    rows = []
    for line in text.splitlines():
        toks = line.split()
        if toks:
            rows.append(toks)
    if not rows:
        raise GraphParseError("empty adjacency matrix")
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise GraphParseError(f"row {i} has {len(row)} entries, expected {n}")
    entries = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, tok in enumerate(row):
            if tok not in ("0", "1"):
                raise GraphParseError(f"entry ({i}, {j}) is {tok!r}, expected 0 or 1")
            entries[i][j] = int(tok)
    for i in range(n):
        if entries[i][i]:
            raise GraphParseError(f"nonzero diagonal at ({i}, {i})")
        for j in range(i + 1, n):
            if entries[i][j] != entries[j][i]:
                raise GraphParseError(f"asymmetric entries at ({i}, {j}) and ({j}, {i})")
    adj = tuple(
        sum((entries[i][j] << j) for j in range(n)) for i in range(n)
    )
    return Graph(n, adj)


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text: "n; i j; i j; ...".

    Fields are separated by ';' or newlines.  "3;" denotes the empty
    graph on 3 vertices.  Endpoint order within a pair is free; loops
    and duplicate edges are rejected.
    """
    fields = [f.strip() for f in text.replace("\n", ";").split(";")]
    fields = [f for f in fields if f]
    if not fields:
        raise GraphParseError("empty edge list")
    try:
        n = int(fields[0])
    except ValueError:
        raise GraphParseError(f"vertex count {fields[0]!r} is not an integer") from None
    if not 1 <= n <= MAX_VERTICES:
        raise GraphParseError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    adj = [0] * n
    for f in fields[1:]:
        toks = f.split()
        if len(toks) != 2:
            raise GraphParseError(f"edge field {f!r} is not two integers")
        try:
            a, b = int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphParseError(f"edge field {f!r} is not two integers") from None
        if not (0 <= a < n and 0 <= b < n):
            raise GraphParseError(f"edge ({a}, {b}) out of range for n={n}")
        if a == b:
            raise GraphParseError(f"loop at vertex {a}")
        if adj[a] >> b & 1:
            raise GraphParseError(f"duplicate edge ({min(a, b)}, {max(a, b)})")
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return Graph(n, tuple(adj))


def induced_edge_count(g: Graph, subset: VertexSubset) -> int:
    """Number of edges of g with both endpoints in the subset mask."""
    if subset < 0 or subset >> g.n:
        raise InputError(f"subset mask {subset:#x} out of range for n={g.n}")
    total = 0
    s = subset
    while s:
        i = (s & -s).bit_length() - 1
        s &= s - 1
        total += (g.adj[i] & subset).bit_count()
    return total // 2


def _slice_tables(
    adj: tuple[int, ...], k: int, scale: int = 1, weights: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The slice decomposition (base, a, b) of the keys scale * e(S) +
    sum(weights[i] for i in S) of every subset mask S of vertices 0..k-1
    of the graph with rows adj: by default the induced edge counts e(S).

    A key grows by scale * |adj[i] & S| + weights[i] when vertex i joins
    S, so the low _SLICE_BITS vertices' keys are built once by subset
    doubling over the S below i: base (uint16), the keys of slice 0.
    Above it, base is viewed as a grid: rows are the upper half of the
    low vertices, columns the lower half.  For a set H of high vertices,
    subset doubling over H builds
      a[H][c] = scale * (|edges from H into column subset c| +
                |edges inside H|) + sum(weights[v] for v in H),
      b[H][r] = scale * |edges from H into row subset r|,
    so slice H is grid + b[H][:, None] + a[H] (_slices).  a and b are
    None when k is at most _SLICE_BITS: base is the one slice.
    """
    weights = weights or (0,) * k

    def step(masks: np.ndarray, row: int, weight: int = 0) -> np.ndarray:
        # The plain edge counts step by the uint8 counts themselves.
        counts = np.bitwise_count(masks & row)
        if scale == 1 and not weight:
            return counts
        return counts * np.uint16(scale) + np.uint16(weight)

    bits = min(k, _SLICE_BITS)
    low = np.arange(1 << bits, dtype=np.uint32)
    base = np.zeros(1 << bits, dtype=np.uint16)
    base[1] = weights[0]
    for i in range(1, bits):
        half = 1 << i
        base[half : 2 * half] = base[:half] + step(low[:half], adj[i], weights[i])
    high = k - bits
    if not high:
        return base, None, None
    cbits = bits // 2
    cols, rows = low[: 1 << cbits], low[: 1 << (bits - cbits)] << cbits
    a = np.zeros((1 << high, len(cols)), dtype=np.uint16)
    b = np.zeros((1 << high, len(rows)), dtype=np.uint16)
    inside = np.zeros(1 << high, dtype=np.uint16)
    subsets = np.arange(1 << high, dtype=np.uint32)
    for j in range(high):
        half = 1 << j
        row = adj[bits + j]
        np.add(a[:half], step(cols, row), out=a[half : 2 * half])
        np.add(b[:half], step(rows, row), out=b[half : 2 * half])
        np.add(
            inside[:half],
            step(subsets[:half], row >> bits, weights[bits + j]),
            out=inside[half : 2 * half],
        )
    a += inside[:, None]
    return base, a, b


def _slices(
    base: np.ndarray, a: np.ndarray | None, b: np.ndarray | None
) -> Iterator[tuple[int, np.ndarray]]:
    """The slices of a decomposition from _slice_tables, in ascending
    order: (0, base), then (H << bits, grid + b[H][:, None] + a[H]) for
    each high set H, written into one buffer that every later slice
    reuses: a consumer must not keep a slice past the next one."""
    yield 0, base
    if a is None:
        return
    grid = base.reshape(b.shape[1], a.shape[1])
    e = np.empty_like(base)
    out = e.reshape(grid.shape)
    bits = len(base).bit_length() - 1
    for h in range(1, len(a)):
        np.add(grid, b[h][:, None], out=out)
        out += a[h]
        yield h << bits, e


def _sweep_bytes(k: int) -> int:
    """Peak bytes of one sweep _slices(*_slice_tables(adj, k)): per mask
    of a slice, the uint32 masks, uint16 counts and at most 4 B of doubling
    temporaries (the slice buffer comes after the masks are freed); per
    high set (one if none) and grid line, the uint16 a and b entries."""
    high = max(0, k - _SLICE_BITS)
    return (10 << min(k, _SLICE_BITS)) + (4 << (high + _SLICE_BITS // 2))


def _edge_counts(g: Graph) -> Iterator[tuple[int, np.ndarray]]:
    """Induced edge count of every subset mask, in ascending slices.

    Yields (start, e) where e[i] (uint16) is the edge count induced by
    mask start + i; the slices cover 0 .. 2^n - 1 in order, 2^_SLICE_BITS
    masks at a time, and e is reused by the next slice.  The slices of
    _slice_tables(g.adj, n).  A sweep holds _sweep_bytes(n), 1 MiB at most.
    """
    yield from _slices(*_slice_tables(g.adj, g.n))


def _edge_tally(g: Graph) -> np.ndarray:
    """counts[k] (int64) is the number of subset masks inducing exactly
    k edges, for k = 0..m.

    One np.bincount per slice of the one kernel.  Above _SLICE_BITS
    vertices, the lowest-degree vertices (ties by index), at most n -
    _SLICE_BITS of them, are paired while the key range (m + 1) * P,
    with P = prod(deg v + 1), stays within _TALLY_BINS; none are at
    n <= _SLICE_BITS, where the slices are the edge counts themselves.
    The paired vertices move to the top of relabelled rows, the first
    paired to n-1 and the last to k, the others keeping their order in
    0..k-1, and the masks S run over those with the key e(S) * P +
    sum(stride[v] * |adj[v] & S|), the flat index of an array of shape
    (m + 1, deg k + 1, ..., deg n-1 + 1).  Vertex i joining S adds P *
    |adj[i] & S| plus the strides of its paired neighbours, its weight,
    so the kernel's slices are the keys themselves: 2^(n-k) times fewer
    slices.  _fold then adds the paired vertices back.  The tally is
    invariant under relabelling.
    """
    adj, k, bins = g.adj, g.n, g.m + 1
    if g.n > _SLICE_BITS:
        degrees = g.degrees()
        paired = []
        # A stable sort: ties by index.
        for v in sorted(range(g.n), key=degrees.__getitem__)[: g.n - _SLICE_BITS]:
            if bins * (degrees[v] + 1) > _TALLY_BINS:
                break
            paired.append(v)
            bins *= degrees[v] + 1
        k -= len(paired)
        order = [v for v in range(g.n) if v not in paired] + paired[::-1]
        adj = _relabel(adj, [order.index(v) for v in range(g.n)])
    sizes = [adj[v].bit_count() + 1 for v in range(k, g.n)]
    weights = [
        sum(prod(sizes[v - k + 1 :]) for v in range(k, g.n) if adj[v] >> i & 1)
        for i in range(k)
    ]
    tally = np.zeros(bins, dtype=np.int64)
    for _, key in _slices(*_slice_tables(adj, k, prod(sizes), weights)):
        tally += np.bincount(key, minlength=bins)
    return _fold(adj, k, tally.reshape(g.m + 1, *sizes))


def _relabel(adj: tuple[int, ...], p: Permutation) -> tuple[int, ...]:
    """The adjacency rows adj with vertex i relabelled p[i], one loop
    over the set bits of each row."""
    bits = [1 << q for q in p]
    rows = [0] * len(adj)
    for i, row in enumerate(adj):
        new = 0
        while row:
            low = row & -row
            new |= bits[low.bit_length() - 1]
            row ^= low
        rows[p[i]] = new
    return tuple(rows)


def _fold(adj: tuple[int, ...], k: int, tally: np.ndarray) -> np.ndarray:
    """counts[e] from tally[e, d_k, ..., d_n-1], the number of masks S of
    vertices 0..k-1 of the graph with rows adj with e edges and d_v
    neighbours of each paired vertex v >= k.  Vertex by vertex, v leaves
    S + T unchanged or joins it: then e grows by d_v, and d_w by one for
    each later neighbour w.
    No count leaves the array: e + d_v <= m, and d_w < deg w while its
    neighbour v has not joined."""
    for v in range(k, len(adj)):
        join = [adj[v] >> w & 1 for w in range(v + 1, len(adj))]
        up = tuple(slice(1, None) if w else slice(None) for w in join)
        down = tuple(slice(None, -1) if w else slice(None) for w in join)
        out = tally.sum(axis=1)
        top = len(tally)
        for d in range(min(tally.shape[1], top)):
            out[(slice(d, None), *up)] += tally[(slice(None, top - d), d, *down)]
        tally = out
    return tally


def are_isomorphic(g1: Graph, g2: Graph) -> Permutation | None:
    """Exact isomorphism test by backtracking search.

    Returns a permutation p with (i, j) in E1 <=> (p[i], p[j]) in E2,
    or None.  Exponential in the worst case; intended for n <= 10.
    """
    if g1.n != g2.n or g1.m != g2.m:
        return None
    n = g1.n
    d1, d2 = g1.degrees(), g2.degrees()
    if sorted(d1) != sorted(d2):
        return None
    # Most-constrained-first: map high-degree vertices early.
    order = sorted(range(n), key=lambda v: -d1[v])
    mapping = [-1] * n
    used = 0

    def extend(depth: int) -> bool:
        nonlocal used
        if depth == n:
            return True
        u = order[depth]
        # Image of u must match degree and edges to already-mapped vertices.
        required = 0
        placed = 0
        for w in order[:depth]:
            placed |= 1 << mapping[w]
            if (g1.adj[u] >> w) & 1:
                required |= 1 << mapping[w]
        for v in range(n):
            if (used >> v) & 1 or d2[v] != d1[u]:
                continue
            if g2.adj[v] & placed != required:
                continue
            mapping[u] = v
            used |= 1 << v
            if extend(depth + 1):
                return True
            used &= ~(1 << v)
            mapping[u] = -1
        return False

    if not extend(0):
        return None
    return tuple(mapping)


@cache
def _pair_weights(n: int) -> np.ndarray:
    """weights[q, p] (uint32) is the code bit that vertex pair q, in
    _pair_order, sets under labelling p, one column per permutation of
    0..n-1.  Each labelling puts each pair at one position, so a graph's
    code under p is the sum of its edge rows in column p: no sum carries.
    """
    nbits = n * (n - 1) // 2
    perms = np.array(list(permutations(range(n))), dtype=np.uint8).T
    weights = np.empty((nbits, perms.shape[1]), dtype=np.uint32)
    for q, (i, j) in enumerate(_pair_order(n)):
        lo, hi = np.minimum(perms[i], perms[j]), np.maximum(perms[i], perms[j])
        weights[q] = np.uint32(1) << (nbits - 1 - (hi * (hi - 1) // 2 + lo))
    return weights


def canonical_code(g: Graph) -> str:
    """Canonical form: lexicographically smallest upper-triangle bit
    string over all relabelings.  Equal codes <=> isomorphic graphs.

    The minimum over all n! columns of _pair_weights, so capped at n <= 8.
    Library API: the census canonicalises through _extension_codes.
    """
    if g.n > CANONICAL_MAX_VERTICES:
        raise ResourceLimitError(
            f"canonical_code supports n <= {CANONICAL_MAX_VERTICES}, got {g.n}"
        )
    nbits = g.n * (g.n - 1) // 2
    if nbits == 0:
        return ""
    return format(int(_labelled_codes(g, g.n).min()), f"0{nbits}b")


def _extension_codes(reps: list[Graph]) -> set[int]:
    """Canonical codes of all graphs that add a vertex k-1 to one of
    reps, of order k-1.  Per rep, row 0 of one 2^(k-1) x k! block is its
    code under each labelling; adding pair (i, k-1)'s weights to rows
    0 .. 2^i - 1 gives rows 2^i .. 2^(i+1) - 1 (subset doubling, as in
    _edge_counts), so row s's minimum is the code of the extension whose
    new vertex is adjacent to mask s."""
    k = reps[0].n + 1
    spokes = _pair_weights(k)[-(k - 1) :]  # pairs (i, k-1) come last
    block = np.empty((1 << (k - 1), spokes.shape[1]), dtype=np.uint32)
    codes: set[int] = set()
    for g in reps:
        block[0] = _labelled_codes(g, k)
        for i, spoke in enumerate(spokes):
            np.add(block[: 1 << i], spoke, out=block[1 << i : 2 << i])
        codes.update(block.min(axis=1).tolist())
    return codes


def _labelled_codes(g: Graph, n: int) -> np.ndarray:
    """g's code under every labelling of n >= g.n vertices (uint32): the
    sum of g's edge rows of _pair_weights(n), where pair (i, j) is row
    j(j-1)/2 + i at every n > j."""
    rows = _pair_weights(n)[[j * (j - 1) // 2 + i for i, j in g.edges()]]
    return rows.sum(axis=0, dtype=np.uint32)
