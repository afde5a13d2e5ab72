"""Op lists of the three workloads.

An op is a JSON-ready dict. `cmd` names what runs: a qgi CLI subcommand
(`invariant`, `compare`, `encode`, `survey`) or one of the two library
calls without a CLI (`mis` for `max_independent_set`, `prop1` for
`prop1_check`). `graphs` holds each input graph as [n, [[i, j], ...]],
which the oracle reads; the CLI gets the same graph as an inline edge
list, or as the fixture named in `fixtures`.

The (n, m) schedule of each workload is fixed. The seed only draws
edges, relabellings and the shot-sampling seed, so every seed asks for
the same amount of work.
"""

from __future__ import annotations

import random

WORKLOADS = ("qpe", "sweep", "census")

# The two fixtures the census compares, and Petersen, as edge lists.
# The oracle never sees qgi's copies, so a changed fixture shows as a
# failed op.
G1_EDGES = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5], [0, 6], [1, 6]]
G2_EDGES = [[0, 1], [1, 2], [2, 3], [0, 3], [0, 4], [4, 5], [4, 6], [5, 6]]
PETERSEN_EDGES = (
    [[i, (i + 1) % 5] for i in range(5)]
    + [[i, i + 5] for i in range(5)]
    + [[5 + i, 5 + (i + 2) % 5] for i in range(5)]
)

SHOTS = 100_000


def random_graph(rng: random.Random, n: int, m: int) -> list:
    pairs = [[i, j] for i in range(n) for j in range(i + 1, n)]
    return [n, sorted(rng.sample(pairs, m))]


def relabel(rng: random.Random, graph: list) -> tuple[list, list[int]]:
    """The graph with vertex i renamed perm[i], and perm."""
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    moved = sorted(sorted([perm[i], perm[j]]) for i, j in edges)
    return [n, moved], perm


def probe_ops(rng: random.Random) -> list[dict]:
    """Tiny ops (n <= 5) that enter every traced layer once.

    Every workload runs them, so no per-layer time is structurally zero
    on any workload; they cost well under 1 % of a pass.
    """
    c4 = [4, [[0, 1], [1, 2], [2, 3], [0, 3]]]
    c4b, perm = relabel(rng, c4)
    p5 = random_graph(rng, 5, 4)
    return [
        {"name": "probe.compare", "cmd": "compare", "graphs": [c4, c4b]},
        {"name": "probe.encode", "cmd": "encode", "graphs": [p5]},
        {"name": "probe.shots", "cmd": "invariant", "mode": "shots", "fuse": True,
         "shots": 2000, "seed": rng.randrange(1 << 30), "graphs": [c4b]},
        {"name": "probe.survey_cold", "cmd": "survey", "n": 3,
         "source": "qpe-exact", "cache": "probe", "cold": True},
        {"name": "probe.survey_warm", "cmd": "survey", "n": 3,
         "source": "qpe-exact", "cache": "probe", "cold": False},
        {"name": "probe.mis", "cmd": "mis", "graphs": [p5]},
        {"name": "probe.prop1", "cmd": "prop1", "graphs": [c4, c4b], "perm": perm},
    ]


def _qpe(rng: random.Random) -> list[dict]:
    # Widths n + bit_length(m): 18, 19, 20, 21.
    ops = [
        {"name": f"qpe.fused_w{n + m.bit_length()}", "cmd": "invariant",
         "mode": "qpe", "fuse": True, "graphs": [random_graph(rng, n, m)]}
        for n, m in ((13, 20), (14, 24), (15, 28), (16, 24))
    ]
    ops += [
        # The paper's circuit: oracle applied 2^j times, 251 gates, width 14.
        {"name": "qpe.petersen_unfused", "cmd": "invariant", "mode": "qpe",
         "fuse": False, "graphs": [[10, PETERSEN_EDGES]], "fixtures": ["petersen"]},
        {"name": "qpe.shots_w19", "cmd": "invariant", "mode": "shots", "fuse": True,
         "shots": SHOTS, "seed": rng.randrange(1 << 30),
         "graphs": [random_graph(rng, 14, 20)]},
        {"name": "qpe.encode_n16", "cmd": "encode", "graphs": [random_graph(rng, 16, 40)]},
    ]
    return ops


def _sweep(rng: random.Random) -> list[dict]:
    ops = []
    for n in (18, 20, 22):
        # Sparse and dense at equal n: O(m 2^n) and O(2^n) kernels differ.
        for label, m in (("sparse", 3 * n // 2), ("dense", 4 * n)):
            ops.append({"name": f"sweep.{label}_n{n}", "cmd": "invariant",
                        "mode": "classical", "graphs": [random_graph(rng, n, m)]})
    for n, m in ((16, 40), (10, 20)):
        g = random_graph(rng, n, m)
        h, _ = relabel(rng, g)
        ops.append({"name": f"sweep.compare_n{n}", "cmd": "compare", "graphs": [g, h]})
    g = random_graph(rng, 16, 40)
    h, perm = relabel(rng, g)
    ops.append({"name": "sweep.mis_n16", "cmd": "mis", "graphs": [g]})
    ops.append({"name": "sweep.prop1_n16", "cmd": "prop1", "graphs": [g, h], "perm": perm})
    return ops


def _census(rng: random.Random) -> list[dict]:
    return [
        {"name": "census.survey7_cold", "cmd": "survey", "n": 7,
         "source": "classical", "cache": "census", "cold": True},
        {"name": "census.survey7_warm", "cmd": "survey", "n": 7,
         "source": "classical", "cache": "census", "cold": False},
        {"name": "census.survey6_qpe", "cmd": "survey", "n": 6,
         "source": "qpe-exact", "cache": None, "cold": True},
        {"name": "census.compare_g1_g2", "cmd": "compare",
         "graphs": [[7, G1_EDGES], [7, G2_EDGES]], "fixtures": ["g1", "g2"]},
    ]


_BUILDERS = {"qpe": _qpe, "sweep": _sweep, "census": _census}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The fixed op list of one workload: its own ops, then the probe."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}")) + probe_ops(probe_rng(seed))


def probe_rng(seed: int) -> random.Random:
    return random.Random(f"probe:{seed}")
