"""Spans around qgi's layer boundaries, recorded from outside the package.

qgi modules import functions by name (`invariant` holds its own `run`,
`marginal` and `sample`; `cli` holds `run_survey`), so wrapping a
function in its defining module is not enough: `install` rebinds every
reference to it in every loaded qgi module, and `uninstall` puts each
one back. Spans stay in memory; `layer_metrics` turns the spans of one
pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time

# The layer boundaries: module -> public functions wrapped.
BOUNDARIES = {
    "cli": ("main",),
    "graphs": ("parse_graph6", "parse_adjacency", "parse_edge_list",
               "canonical_code", "are_isomorphic"),
    "circuit": ("build_qpe", "export_qasm"),
    "simulator": ("run", "apply_gate", "marginal", "sample"),
    "invariant": ("classical_histogram", "quantum_histogram", "max_independent_set",
                  "prop1_check", "char_poly"),
    "survey": ("enumerate_classes", "run_survey", "load_report", "save_report"),
}

AMP_BYTES = 16  # complex128
# Share of the amplitudes each gate kind rewrites.
GATE_SHARE = {"h": 1.0, "p": 0.5, "cp": 0.25, "ccp": 0.125, "swap": 0.5}
GATE_KINDS = ("h", "cp", "ccp", "swap")

PER_LAYER = (
    ("cli.self_s", "s"),
    ("graphs.parse_s", "s"), ("graphs.parse_calls", "count"),
    ("graphs.canonical_code_s", "s"), ("graphs.canonical_code_calls", "count"),
    ("graphs.are_isomorphic_s", "s"), ("graphs.are_isomorphic_calls", "count"),
    ("circuit.build_qpe_s", "s"),
    *((f"circuit.gates_{k}", "count") for k in GATE_KINDS),
    ("circuit.export_qasm_s", "s"),
    *((f"simulator.gate_{k}_s", "s") for k in GATE_KINDS),
    ("simulator.run_self_s", "s"),
    ("simulator.amp_passes", "count"), ("simulator.amp_bytes_computed", "B"),
    ("simulator.peak_amp_mib", "MiB"),
    ("simulator.marginal_s", "s"), ("simulator.sample_s", "s"),
    ("invariant.classical_histogram_s", "s"), ("invariant.subsets_swept", "count"),
    ("invariant.edge_subset_work", "count"),
    ("invariant.max_independent_set_s", "s"), ("invariant.prop1_check_s", "s"),
    ("invariant.quantum_histogram_self_s", "s"),
    ("invariant.char_poly_s", "s"), ("invariant.char_poly_calls", "count"),
    ("survey.enumerate_classes_s", "s"), ("survey.candidates", "count"),
    ("survey.classes", "count"), ("survey.class_yield", "ratio"),
    ("survey.run_survey_self_s", "s"),
    ("survey.cache_load_s", "s"), ("survey.cache_save_s", "s"),
    ("survey.cache_hits", "count"), ("survey.cache_misses", "count"),
)


def _facts(name: str, args: tuple, result) -> dict:
    """What a span records about its call besides its interval."""
    if name == "simulator.apply_gate":
        return {"kind": args[1].kind, "width": args[0].n_qubits}
    if name == "simulator.run":
        return {"width": args[0].width}
    if name == "circuit.build_qpe":
        kinds = {}
        for gate in result.gates:
            kinds[gate.kind] = kinds.get(gate.kind, 0) + 1
        return {"gates": kinds}
    if name in ("invariant.classical_histogram", "invariant.max_independent_set"):
        return {"subsets": 1 << args[0].n, "work": args[0].m << args[0].n}
    if name == "invariant.prop1_check":
        # Both graphs are swept; a True answer sweeps every subset.
        return {"subsets": 2 << args[0].n, "work": (args[0].m + args[1].m) << args[0].n}
    if name == "graphs.canonical_code":
        return {"n": args[0].n, "code": result}
    if name == "survey.load_report":
        return {"hit": result is not None}
    return {}


class Tracer:
    """Records a span per call of a boundary function while installed.

    A span is [name, start, end, parent index, op label, facts].
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._rebound: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[5] = _facts(name, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod, names in BOUNDARIES.items():
            module = sys.modules[f"qgi.{mod}"]
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "qgi" and not modname.startswith("qgi."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def take(self) -> list[list]:
        """The spans recorded so far, which are then forgotten. Call it
        only between top-level calls: parent indices restart at 0."""
        if self._stack:
            raise RuntimeError("spans are still open")
        taken = self.spans[:]
        self.spans.clear()
        return taken

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _self_time(spans: list[list], children: dict[int, list[int]], idx: int) -> float:
    """Span duration minus the union of its children's intervals."""
    start, end = spans[idx][1], spans[idx][2]
    covered, reach = 0.0, start
    for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(idx, ())):
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of a list of spans (one pass), by PER_LAYER name."""
    out = {name: 0.0 if unit in ("s", "ratio", "MiB") else 0 for name, unit in PER_LAYER}
    children: dict[int, list[int]] = {}
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(idx)
    for idx, (name, start, end, parent, _op, facts) in enumerate(spans):
        dur = end - start
        mod, fname = name.split(".", 1)
        if name == "cli.main":
            out["cli.self_s"] += _self_time(spans, children, idx)
        elif fname.startswith("parse_"):
            out["graphs.parse_s"] += dur
            out["graphs.parse_calls"] += 1
        elif name in ("graphs.canonical_code", "graphs.are_isomorphic",
                      "invariant.char_poly"):
            out[f"{name}_s"] += dur
            out[f"{name}_calls"] += 1
        elif name == "circuit.build_qpe":
            out["circuit.build_qpe_s"] += dur
            for kind in GATE_KINDS:
                out[f"circuit.gates_{kind}"] += facts["gates"].get(kind, 0)
        elif name == "simulator.apply_gate":
            kind = facts["kind"]
            if kind in GATE_KINDS:
                out[f"simulator.gate_{kind}_s"] += dur
            out["simulator.amp_passes"] += 1
            out["simulator.amp_bytes_computed"] += int(
                2 * AMP_BYTES * (1 << facts["width"]) * GATE_SHARE[kind])
        elif name == "simulator.run":
            out["simulator.run_self_s"] += _self_time(spans, children, idx)
            mib = AMP_BYTES * (1 << facts["width"]) / (1 << 20)
            out["simulator.peak_amp_mib"] = max(out["simulator.peak_amp_mib"], mib)
        elif name in ("invariant.classical_histogram", "invariant.max_independent_set",
                      "invariant.prop1_check"):
            out[f"{name}_s"] += dur
            out["invariant.subsets_swept"] += facts["subsets"]
            out["invariant.edge_subset_work"] += facts["work"]
        elif name == "invariant.quantum_histogram":
            out["invariant.quantum_histogram_self_s"] += _self_time(spans, children, idx)
        elif name == "survey.run_survey":
            out["survey.run_survey_self_s"] += _self_time(spans, children, idx)
        elif name == "survey.enumerate_classes":
            # Candidates are the canonical codes computed; classes are the
            # distinct codes found at each order.
            out["survey.enumerate_classes_s"] += dur
            codes = [spans[c][5] for c in children.get(idx, ())
                     if spans[c][0] == "graphs.canonical_code"]
            out["survey.candidates"] += len(codes)
            out["survey.classes"] += len({(f["n"], f["code"]) for f in codes})
        elif name == "survey.load_report":
            out["survey.cache_load_s"] += dur
            out["survey.cache_hits" if facts["hit"] else "survey.cache_misses"] += 1
        elif name in ("circuit.export_qasm", "simulator.marginal", "simulator.sample",
                      "survey.save_report"):
            key = {"survey.save_report": "survey.cache_save_s"}.get(name, f"{name}_s")
            out[key] += dur
    if out["survey.candidates"]:
        out["survey.class_yield"] = out["survey.classes"] / out["survey.candidates"]
    return out
