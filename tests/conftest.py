"""Shared helpers: deterministic random graphs and reference oracles."""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import settings
from hypothesis import strategies as st

from qgi import Graph

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


def slow_char_poly(g: Graph) -> list[int]:
    """Reference characteristic polynomial of det(xI - A) by the Leibniz
    permutation expansion over integer polynomials (usable for n <= 7)."""
    from itertools import permutations

    n = g.n

    def poly_mul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

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
            a_ij = 1 if g.has_edge(i, j) else 0
            if i == j:
                term = poly_mul(term, [-a_ij, 1])  # x - A[i][i]
            else:
                term = poly_mul(term, [-a_ij])
        padded = term + [0] * (n + 1 - len(term))
        for k in range(n + 1):
            total[k] += sign * padded[k]
    # total[k] multiplies x^k; convert to leading-first order
    return list(reversed(total))
