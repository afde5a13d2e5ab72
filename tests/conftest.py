"""Shared helpers: deterministic random graphs and reference oracles."""

from __future__ import annotations

import json
import os
import random
from itertools import combinations, permutations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from qgi import Graph
from qgi.graphs import _edge_counts
from qgi.survey import CACHE_VERSION, _report_digest

# pyproject.toml puts src on this process's path; a test that starts
# `python -m qgi.cli` passes it on, so no install is needed there either.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

# Property tests replay the same examples on every run, so the suite stays
# deterministic and bounded in time.
settings.register_profile(
    "pinned", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("pinned")


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


@st.composite
def graphs(draw, max_n: int = 10) -> Graph:
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for k, p in enumerate(pairs) if chosen >> k & 1])


def random_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def slow_histogram(g: Graph) -> list[int]:
    """Reference edge-count histogram: plain itertools, no bit tricks."""
    edge_set = set(g.edges())
    counts = [0] * (g.m + 1)
    vertices = range(g.n)
    for size in range(g.n + 1):
        for subset in combinations(vertices, size):
            have = sum(1 for pair in combinations(subset, 2) if pair in edge_set)
            counts[have] += 1
    return counts


def swept_prop1_check(g1: Graph, g2: Graph, perm: tuple[int, ...]) -> bool:
    """Reference Proposition 1 check: e_G1(s) == e_G2(perm(s)) compared
    on all 2^n subsets s, slice by slice of both graphs' sweeps."""
    # e_G2(perm(s)) is the count of s in G2 relabelled by perm's inverse.
    inverse = [0] * g1.n
    for i, p in enumerate(perm):
        inverse[p] = i
    pulled = _edge_counts(g2.permuted(tuple(inverse)))
    return all(np.array_equal(a, b) for (_, a), (_, b) in zip(_edge_counts(g1), pulled))


def slow_canonical_code(g: Graph) -> str:
    """Reference canonical code: the smallest column-major upper-triangle
    bit string over all n! relabellings, by plain itertools."""
    pairs = [(i, j) for j in range(1, g.n) for i in range(j)]
    return min(
        "".join(str(g.adj[p[i]] >> p[j] & 1) for i, j in pairs)
        for p in permutations(range(g.n))
    )


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer polynomials, coefficient lists in one order."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def exact_char_poly(g: Graph) -> list[int]:
    """Reference characteristic polynomial by the Faddeev-LeVerrier
    recurrence on Python ints, which cannot overflow at any n."""
    n = g.n
    a = [[(g.adj[i] >> j) & 1 for j in range(n)] for i in range(n)]
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    coeffs = [1]
    for k in range(1, n + 1):
        am = [
            [sum(a[i][l] * mat[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -(sum(am[i][i] for i in range(n)) // k)
        coeffs.append(c)
        mat = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def slow_char_poly(g: Graph) -> list[int]:
    """Reference characteristic polynomial of det(xI - A) by the Leibniz
    permutation expansion over integer polynomials (usable for n <= 7)."""
    n = g.n
    total = [0] * (n + 1)
    for perm in permutations(range(n)):
        # permutation sign
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = [1]
        for i in range(n):
            j = perm[i]
            a_ij = g.adj[i] >> j & 1
            if i == j:
                term = poly_mul(term, [-a_ij, 1])  # x - A[i][i]
            else:
                term = poly_mul(term, [-a_ij])
        padded = term + [0] * (n + 1 - len(term))
        for k in range(n + 1):
            total[k] += sign * padded[k]
    # total[k] multiplies x^k; convert to leading-first order
    return list(reversed(total))


def save_report_alone(report, path: str) -> None:
    """Reference cache save: one report's read, replace and rewrite, as
    each computed order used to be saved.  Existing lines are re-dumped
    with sorted keys; a line with the report's (n, source, version) key
    is dropped and the report's line is appended."""
    lines = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(ln) for ln in fh.read().splitlines() if ln.strip()]
    key = (report.n, report.source, CACHE_VERSION)
    lines = [e for e in lines if (e.get("n"), e.get("source"), e.get("version")) != key]
    payload = report.to_json()
    lines.append({
        "version": CACHE_VERSION,
        "n": report.n,
        "source": report.source,
        "sha256": _report_digest(payload),
        "report": payload,
    })
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(e, sort_keys=True) + "\n" for e in lines)
