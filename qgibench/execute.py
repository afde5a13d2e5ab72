"""Run ops against qgi in this process.

CLI ops go through `qgi.cli.main(argv)` with stdout and stderr captured;
`mis` and `prop1` call the library. Every op runs single-threaded
(`--threads 1`). Functions are looked up at call time, so a tracer that
rebinds them sees these calls.

As a script it is the set-up probe: a fresh interpreter imports qgi and
runs every probe op once.

Usage: python3 execute.py --setup SEED CACHE_DIR
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import workloads

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(_ROOT, "src")


def import_qgi():
    """Import qgi from the checkout's source tree."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import qgi.cli

    return qgi


def _edge_list(graph: list) -> str:
    n, edges = graph
    return f"{n}; " + "; ".join(f"{i} {j}" for i, j in edges)


def _graph_args(op: dict) -> list[str]:
    fixtures = op.get("fixtures")
    if fixtures:
        return list(fixtures)
    return [_edge_list(g) for g in op["graphs"]]


def argv(op: dict, cache_dir: str) -> list[str]:
    """The CLI arguments of a CLI op."""
    cmd = op["cmd"]
    if cmd == "invariant":
        args = ["invariant", *_graph_args(op), "--threads", "1"]
        if op["mode"] != "classical":
            args += ["--mode", op["mode"]]
        if op.get("fuse"):
            args.append("--fuse")
        if op["mode"] == "shots":
            args += ["--shots", str(op["shots"]), "--seed", str(op["seed"])]
        return args
    if cmd == "compare":
        return ["compare", *_graph_args(op), "--threads", "1"]
    if cmd == "encode":
        return ["encode", *_graph_args(op)]
    if cmd == "survey":
        args = ["survey", "--n", str(op["n"]), "--source", op["source"], "--threads", "1"]
        if op["cache"]:
            args += ["--cache", cache_path(op, cache_dir)]
        return args
    raise ValueError(f"not a CLI op: {cmd!r}")


def cache_path(op: dict, cache_dir: str) -> str:
    return os.path.join(cache_dir, f"{op['cache']}.jsonl")


class Executor:
    """Runs ops; survey caches live under `cache_dir`."""

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir
        self.qgi = import_qgi()

    def prepare(self, op: dict) -> None:
        """Untimed set-up of one op: a cold survey starts without a cache."""
        if op["cmd"] == "survey" and op["cache"] and op["cold"]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(cache_path(op, self.cache_dir))

    def run(self, op: dict) -> dict:
        """Run one op and return what it produced, or the error it raised."""
        try:
            if op["cmd"] == "mis":
                g = self._graph(op["graphs"][0])
                return {"value": list(self.qgi.invariant.max_independent_set(g))}
            if op["cmd"] == "prop1":
                g1, g2 = (self._graph(g) for g in op["graphs"])
                return {"value": self.qgi.invariant.prop1_check(g1, g2, tuple(op["perm"]))}
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.qgi.cli.main(argv(op, self.cache_dir))
            return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
        except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
            return {"error": f"{type(exc).__name__}: {exc}"}

    def _graph(self, graph: list):
        return self.qgi.Graph.from_edges(graph[0], graph[1])


def _setup_probe(seed: int, cache_dir: str) -> int:
    executor = Executor(cache_dir)
    for op in workloads.probe_ops(workloads.probe_rng(seed)):
        executor.prepare(op)
        out = executor.run(op)
        if out.get("error") or out.get("rc", 0) != 0:
            print(f"{op['name']}: {out}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "--setup":
        sys.exit(__doc__)
    sys.exit(_setup_probe(int(sys.argv[2]), sys.argv[3]))
