"""Independent reference answers for every op of a workload.

Runs in its own process before timing and never imports qgi: the edge
counts come from a subset-doubling sweep, e(S + {k}) = e(S) +
popcount(lower[k] & S), not from qgi's per-edge kernel; spectra from
the Berkowitz recurrence, not Faddeev-LeVerrier; isomorphism from
networkx; and the census from networkx's graph atlas, pinned to OEIS
A000088.

Usage: python3 oracle.py < ops.json > refs.json
"""

from __future__ import annotations

import json
import sys

import numpy as np

# Graphs on n = 0..7 vertices up to isomorphism (OEIS A000088).
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044)

SPECTRUM_MAX_VERTICES = 16  # qgi compares spectra up to this order
ISOMORPHISM_MAX_VERTICES = 10  # and searches isomorphisms up to this one


def edge_counts(n: int, edges) -> np.ndarray:
    """Induced edge count of every vertex subset, by subset doubling."""
    lower = [0] * n
    for i, j in edges:
        lo, hi = min(i, j), max(i, j)
        lower[hi] |= 1 << lo
    e = np.zeros(1, dtype=np.uint16)
    for k in range(n):
        subsets = np.arange(1 << k, dtype=np.uint32)
        e = np.concatenate([e, e + np.bitwise_count(subsets & lower[k]).astype(np.uint16)])
    return e


def histogram(n: int, edges) -> list[int]:
    return [int(c) for c in np.bincount(edge_counts(n, edges), minlength=len(edges) + 1)]


def register_size(m: int) -> int:
    """Smallest t >= 1 with 2^t > m: every count 0..m gets its own outcome."""
    t = 1
    while (1 << t) <= m:
        t += 1
    return t


def char_poly(n: int, edges) -> tuple[int, ...]:
    """det(xI - A), leading coefficient first, by the Berkowitz recurrence
    in exact integers: grow the leading block by one row and column."""
    a = [[0] * n for _ in range(n)]
    for i, j in edges:
        a[i][j] = a[j][i] = 1
    poly = [1, -a[0][0]]
    for k in range(1, n):
        row, col = a[k][:k], [a[i][k] for i in range(k)]
        toeplitz = [1, -a[k][k]]
        v = col
        for _ in range(k):
            toeplitz.append(-sum(r * x for r, x in zip(row, v)))
            v = [sum(a[i][j] * v[j] for j in range(k)) for i in range(k)]
        poly = [
            sum(toeplitz[i - j] * poly[j] for j in range(len(poly)) if 0 <= i - j < len(toeplitz))
            for i in range(k + 2)
        ]
    return tuple(poly)


def max_independent_set(n: int, edges) -> list[int]:
    """[size, smallest mask of that size] over subsets inducing no edge."""
    e = edge_counts(n, edges)
    free = np.nonzero(e == 0)[0].astype(np.uint32)
    sizes = np.bitwise_count(free)
    best = int(sizes.max())
    return [best, int(free[sizes == best].min())]


def _nx_graph(n: int, edges):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(map(tuple, edges))
    return g


def compare(g1, g2) -> dict:
    (n1, e1), (n2, e2) = g1, g2
    inv = n1 == n2 and len(e1) == len(e2) and histogram(n1, e1) == histogram(n2, e2)
    spec = None
    if max(n1, n2) <= SPECTRUM_MAX_VERTICES:
        spec = n1 == n2 and char_poly(n1, e1) == char_poly(n2, e2)
    iso = None
    if max(n1, n2) <= ISOMORPHISM_MAX_VERTICES:
        import networkx as nx

        iso = nx.is_isomorphic(_nx_graph(n1, e1), _nx_graph(n2, e2))
    return {"invariant_equal": inv, "spectra_equal": spec, "isomorphic": iso}


def census(max_n: int) -> list[list[int]]:
    """[n, classes, distinct histograms, distinct spectra] for n = 1..max_n,
    from networkx's atlas of all graphs on up to 7 vertices."""
    import networkx as nx

    by_order: dict[int, list] = {}
    for g in nx.graph_atlas_g():
        by_order.setdefault(g.number_of_nodes(), []).append(sorted(g.edges()))
    lines = []
    for n in range(1, max_n + 1):
        graphs = by_order[n]
        if len(graphs) != A000088[n]:
            raise AssertionError(f"atlas has {len(graphs)} graphs on {n} vertices, "
                                 f"OEIS A000088 says {A000088[n]}")
        hists = {tuple(histogram(n, es)) for es in graphs}
        spectra = {char_poly(n, es) for es in graphs}
        lines.append([n, len(graphs), len(hists), len(spectra)])
    return lines


def reference(op: dict, census_lines: list) -> object:
    cmd = op["cmd"]
    graphs = op.get("graphs", [])
    if cmd == "invariant":
        (n, edges), m = graphs[0], len(graphs[0][1])
        t = register_size(m)
        return {"n": n, "m": m, "counts": histogram(n, edges), "t": t,
                "width": n + t, "oracle_calls": (1 << t) - 1}
    if cmd == "compare":
        return compare(graphs[0], graphs[1])
    if cmd == "encode":
        (n, edges), m = graphs[0], len(graphs[0][1])
        t = register_size(m)
        # Hadamards on every qubit, the oracle 2^j times per estimation
        # qubit j, then the inverse QFT: t Hadamards, t(t-1)/2 phases and
        # floor(t/2) swaps.
        return {"g": n, "e": t, "h": n + 2 * t, "ccp": m * ((1 << t) - 1),
                "cp": t * (t - 1) // 2, "swap": t // 2, "measure": t}
    if cmd == "survey":
        return {"lines": census_lines[: op["n"]]}
    if cmd == "mis":
        return max_independent_set(*graphs[0])
    if cmd == "prop1":
        # Equal induced edge counts on every subset (pairs included) holds
        # exactly when perm maps the edge set of g1 onto that of g2.
        perm = op["perm"]
        mapped = {tuple(sorted((perm[i], perm[j]))) for i, j in graphs[0][1]}
        return graphs[0][0] == graphs[1][0] and mapped == {tuple(e) for e in graphs[1][1]}
    raise ValueError(f"unknown op command {cmd!r}")


def references(ops: list[dict]) -> dict:
    """Reference answer of each op, by op name."""
    max_n = max((op["n"] for op in ops if op["cmd"] == "survey"), default=0)
    census_lines = census(max_n) if max_n else []
    return {op["name"]: reference(op, census_lines) for op in ops}


def main() -> int:
    refs = references(json.load(sys.stdin))
    leaked = sorted(m for m in sys.modules if m == "qgi" or m.startswith("qgi."))
    if leaked:
        print(f"oracle imported {leaked}", file=sys.stderr)
        return 1
    json.dump(refs, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
