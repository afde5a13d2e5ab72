"""Built-in named graphs used by the CLI, examples, and tests."""

from __future__ import annotations

from .errors import InputError
from .graphs import Graph, parse_adjacency

# 4-cycle 1-2-3-4-1.
_C4 = """
0 1 0 1
1 0 1 0
0 1 0 1
1 0 1 0
"""

# The same 4-cycle relabeled: 1-3-2-4-1.
_M2 = """
0 0 1 1
0 0 1 1
1 1 0 0
1 1 0 0
"""

# Path on 4 vertices.
_M3 = """
0 1 0 0
1 0 1 0
0 1 0 1
0 0 1 0
"""

# Petersen graph: inner pentagon 1..5, outer pentagram 6..10, spokes.
_PETERSEN = """
0 1 0 0 1 1 0 0 0 0
1 0 1 0 0 0 1 0 0 0
0 1 0 1 0 0 0 1 0 0
0 0 1 0 1 0 0 0 1 0
1 0 0 1 0 0 0 0 0 1
1 0 0 0 0 0 0 1 1 0
0 1 0 0 0 0 0 0 1 1
0 0 1 0 0 1 0 0 0 1
0 0 0 1 0 1 1 0 0 0
0 0 0 0 1 0 1 1 0 0
"""

# Pentagonal prism C5 x K2: pentagons 1..5 and 6..10 joined by spokes.
_PRISM5 = """
0 1 0 0 1 1 0 0 0 0
1 0 1 0 0 0 1 0 0 0
0 1 0 1 0 0 0 1 0 0
0 0 1 0 1 0 0 0 1 0
1 0 0 1 0 0 0 0 0 1
1 0 0 0 0 0 1 0 0 1
0 1 0 0 0 1 0 1 0 0
0 0 1 0 0 0 1 0 1 0
0 0 0 1 0 0 0 1 0 1
0 0 0 0 1 1 0 0 1 0
"""

# 6-cycle plus a seventh vertex adjacent to two cycle neighbors.
_G1 = """
0 1 0 0 0 1 1
1 0 1 0 0 0 1
0 1 0 1 0 0 0
0 0 1 0 1 0 0
0 0 0 1 0 1 0
1 0 0 0 1 0 0
1 1 0 0 0 0 0
"""

# 4-cycle and a triangle joined by a single edge.
_G2 = """
0 1 0 1 1 0 0
1 0 1 0 0 0 0
0 1 0 1 0 0 0
1 0 1 0 0 0 0
1 0 0 0 0 1 1
0 0 0 0 1 0 1
0 0 0 0 1 1 0
"""

_MATRICES = {
    "c4": _C4,
    "m1": _C4,
    "m2": _M2,
    "m3": _M3,
    "petersen": _PETERSEN,
    "prism5": _PRISM5,
    "g1": _G1,
    "g2": _G2,
}

FIXTURE_NAMES = tuple(_MATRICES)


def named_graph(name: str) -> Graph:
    """Fetch a fixture by (case-insensitive) name."""
    key = name.lower()
    if key not in _MATRICES:
        raise InputError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )
    return parse_adjacency(_MATRICES[key])


def is_fixture(name: str) -> bool:
    return name.lower() in _MATRICES
