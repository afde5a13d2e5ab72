from __future__ import annotations

import random
import tracemalloc

import pytest
from conftest import graphs, random_graph, random_permutation, slow_canonical_code
from hypothesis import given, settings
from hypothesis import strategies as st

from qgi import (
    Graph,
    GraphParseError,
    InputError,
    ResourceLimitError,
    are_isomorphic,
    canonical_code,
    encode_graph6,
    induced_edge_count,
    named_graph,
    parse_adjacency,
    parse_edge_list,
    parse_graph6,
)
from qgi.graphs import _from_pair_bits


# --- graph6 ---

def test_graph6_single_vertex():
    # chr(63 + 1) = "@", no edge bits
    g = parse_graph6("@")
    assert g.n == 1 and g.m == 0


def test_graph6_k2():
    # chr(63 + 2) = "A"; one edge bit set, zero-padded: 100000 -> chr(95) = "_"
    g = parse_graph6("A_")
    assert g.n == 2 and g.edges() == ((0, 1),)
    assert encode_graph6(g) == "A_"


def test_graph6_k2_edgeless():
    g = parse_graph6("A?")
    assert g.n == 2 and g.m == 0


def test_graph6_optional_header():
    g = parse_graph6(">>graph6<<A_")
    assert g.edges() == ((0, 1),)
    with pytest.raises(GraphParseError, match="header"):
        parse_graph6(">>sparse6<<A_")


def test_graph6_roundtrip_random():
    rng = random.Random(20817)
    for _ in range(100):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        assert parse_graph6(encode_graph6(g)) == g
    big = random_graph(rng, 24, 0.3)
    assert parse_graph6(encode_graph6(big)) == big


@given(g=graphs(max_n=12), data=st.data())
def test_text_formats_round_trip(g, data):
    assert parse_graph6(encode_graph6(g)) == g
    rows = [" ".join(str(g.adj[i] >> j & 1) for j in range(g.n)) for i in range(g.n)]
    assert parse_adjacency("\n".join(rows)) == g
    # Edge lists take the edges in any order, each pair either way round.
    edges = data.draw(st.permutations(g.edges()))
    flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    fields = [f"{j} {i}" if flip else f"{i} {j}" for (i, j), flip in zip(edges, flips)]
    assert parse_edge_list("; ".join([str(g.n), *fields])) == g


def test_graph6_error_offsets():
    with pytest.raises(GraphParseError, match="byte 0"):
        parse_graph6("")
    # "D" wants 6 C(5,2)=10 bits -> 2 chars; none given
    with pytest.raises(GraphParseError, match="byte 1.*truncated"):
        parse_graph6("D")
    with pytest.raises(GraphParseError, match="byte 1"):
        parse_graph6("D!~")
    # long form marker
    with pytest.raises(GraphParseError, match="byte 0"):
        parse_graph6("~??")
    # n = 25 over the cap
    with pytest.raises(GraphParseError, match="exceeds cap"):
        parse_graph6(chr(63 + 25))
    with pytest.raises(GraphParseError, match="trailing"):
        parse_graph6("A_?")
    # K2's bit section is 1 bit + 5 zero pad bits; 110000 has dirty padding
    with pytest.raises(GraphParseError, match="padding"):
        parse_graph6("Ao")


# --- adjacency matrices ---

def test_parse_adjacency_c4():
    g = parse_adjacency("0 1 0 1\n1 0 1 0\n0 1 0 1\n1 0 1 0")
    assert g.n == 4
    assert g.edges() == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_parse_adjacency_errors():
    with pytest.raises(GraphParseError, match="row 1"):
        parse_adjacency("0 1\n1")
    with pytest.raises(GraphParseError, match="asymmetric"):
        parse_adjacency("0 1\n0 0")
    with pytest.raises(GraphParseError, match="diagonal"):
        parse_adjacency("1 0\n0 0")
    with pytest.raises(GraphParseError, match="expected 0 or 1"):
        parse_adjacency("0 2\n2 0")
    with pytest.raises(GraphParseError, match="empty"):
        parse_adjacency("  \n ")


# --- edge lists ---

def test_parse_edge_list_c4():
    g = parse_edge_list("4; 0 1; 1 2; 2 3; 0 3")
    assert g == named_graph("c4")


def test_parse_edge_list_empty_graph():
    g = parse_edge_list("3;")
    assert g.n == 3 and g.m == 0


def test_parse_edge_list_accepts_newlines_and_order():
    assert parse_edge_list("2\n1 0").edges() == ((0, 1),)


def test_parse_edge_list_errors():
    with pytest.raises(GraphParseError, match="loop"):
        parse_edge_list("2; 0 0")
    with pytest.raises(GraphParseError, match="duplicate"):
        parse_edge_list("3; 0 1; 1 0")
    with pytest.raises(GraphParseError, match="out of range"):
        parse_edge_list("2; 0 2")
    with pytest.raises(GraphParseError, match="not an integer"):
        parse_edge_list("x; 0 1")
    with pytest.raises(GraphParseError, match="not two integers"):
        parse_edge_list("3; 0 1 2")


# --- Graph construction ---

def test_graph_validation():
    with pytest.raises(InputError, match="outside"):
        Graph(0, ())
    with pytest.raises(InputError, match="outside"):
        Graph(25, (0,) * 25)
    with pytest.raises(InputError, match="loop"):
        Graph(2, (0b01, 0b10))
    with pytest.raises(InputError, match="asymmetric"):
        Graph(2, (0b10, 0b00))
    with pytest.raises(InputError, match="references"):
        Graph(2, (0b100, 0b000))
    # Non-integer counts, rows and vertices.
    with pytest.raises(InputError, match="outside"):
        Graph(2.0, (0b10, 0b01))
    with pytest.raises(InputError, match="not all integers"):
        Graph(2, (1.5, 0))
    with pytest.raises(InputError, match="outside"):
        Graph.from_edges(2.5, [])
    for edges in ([(0.0, 1)], [(0, 1.0)], [("0", 1)], [(0, 1, 2)], [0]):
        with pytest.raises(InputError, match="pairs of integer"):
            Graph.from_edges(3, edges)
    # The vertex count is checked before the rows are allocated.
    tracemalloc.start()
    try:
        for n in (0, -1, 25, 10**6):
            with pytest.raises(InputError, match="outside"):
                Graph.from_edges(n, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_degrees_and_edges():
    g = named_graph("petersen")
    assert g.n == 10 and g.m == 15
    assert g.degrees() == (3,) * 10


# --- induced edge counts ---

def test_induced_edge_count_c4():
    c4 = named_graph("c4")
    # vertices {1,3,4} 1-indexed: mask 0b1101; edges (3,4) and (4,1)
    assert induced_edge_count(c4, 0b1101) == 2
    assert induced_edge_count(c4, 0) == 0
    assert induced_edge_count(c4, 0b1111) == 4
    for v in range(4):
        assert induced_edge_count(c4, 1 << v) == 0


def test_induced_edge_count_range_check():
    with pytest.raises(InputError):
        induced_edge_count(named_graph("c4"), 1 << 4)
    with pytest.raises(InputError):
        induced_edge_count(named_graph("c4"), -1)


def test_induced_count_permutation_equivariance():
    rng = random.Random(3021)
    for _ in range(25):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        p = random_permutation(rng, n)
        gp = g.permuted(p)
        for _ in range(10):
            mask = rng.randrange(1 << n)
            mapped = 0
            for i in range(n):
                if (mask >> i) & 1:
                    mapped |= 1 << p[i]
            assert induced_edge_count(g, mask) == induced_edge_count(gp, mapped)


# --- isomorphism ---

def _is_valid_witness(g1: Graph, g2: Graph, p) -> bool:
    return g1.permuted(p) == g2


def test_are_isomorphic_m1_m2():
    m1, m2 = named_graph("m1"), named_graph("m2")
    w = are_isomorphic(m1, m2)
    assert w is not None and _is_valid_witness(m1, m2, w)


def test_are_isomorphic_counterexample_pair():
    assert are_isomorphic(named_graph("g1"), named_graph("g2")) is None


def test_are_isomorphic_quick_rejects():
    assert are_isomorphic(named_graph("c4"), named_graph("m3")) is None
    assert are_isomorphic(parse_edge_list("3;"), parse_edge_list("4;")) is None


def test_are_isomorphic_random_relabelings():
    rng = random.Random(90125)
    for _ in range(30):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        p = random_permutation(rng, n)
        w = are_isomorphic(g, g.permuted(p))
        assert w is not None and _is_valid_witness(g, g.permuted(p), w)


def test_petersen_is_not_prism():
    assert are_isomorphic(named_graph("petersen"), named_graph("prism5")) is None


# --- canonical codes ---

def test_canonical_code_triangle():
    k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert canonical_code(k3) == "111"


def test_canonical_code_m1_m2():
    assert canonical_code(named_graph("m1")) == canonical_code(named_graph("m2"))


def test_canonical_code_invariance():
    rng = random.Random(777)
    for _ in range(30):
        n = rng.randint(1, 8)
        g = random_graph(rng, n)
        p = random_permutation(rng, n)
        assert canonical_code(g) == canonical_code(g.permuted(p))


def test_canonical_code_matches_isomorphism():
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randint(2, 6)
        g1 = random_graph(rng, n)
        g2 = random_graph(rng, n)
        same_code = canonical_code(g1) == canonical_code(g2)
        assert same_code == (are_isomorphic(g1, g2) is not None)


@settings(max_examples=40)
@given(graphs(max_n=7))
def test_canonical_code_matches_brute_force(g):
    assert canonical_code(g) == slow_canonical_code(g)


def test_canonical_code_cap():
    with pytest.raises(ResourceLimitError):
        canonical_code(parse_edge_list("9;"))


def test_from_canonical_code_roundtrip():
    rng = random.Random(555)
    for _ in range(20):
        n = rng.randint(1, 7)
        g = random_graph(rng, n)
        code = canonical_code(g)
        rebuilt = _from_pair_bits(n, int(code or "0", 2))
        assert canonical_code(rebuilt) == code
        assert are_isomorphic(g, rebuilt) is not None
