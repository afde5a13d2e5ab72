from __future__ import annotations

import argparse
import ast
import dataclasses
import functools
import inspect
from pathlib import Path

import qgi
import qgi.circuit
import qgi.simulator
from qgi.cli import build_parser

PUBLIC = {
    "CacheError",
    "CharPoly",
    "Circuit",
    "EdgeHistogram",
    "FIXTURE_NAMES",
    "Gate",
    "Graph",
    "GraphParseError",
    "InputError",
    "InternalCheckError",
    "PrecisionPlan",
    "QgiError",
    "QpeOutcome",
    "ResourceLimitError",
    "SurveyReport",
    "apply_gate",
    "are_isomorphic",
    "build_oracle",
    "build_qpe",
    "canonical_code",
    "char_poly",
    "classical_histogram",
    "dump_amplitudes",
    "encode_graph6",
    "enumerate_classes",
    "export_qasm",
    "induced_edge_count",
    "init_state",
    "invariant_equal",
    "is_fixture",
    "load_report",
    "marginal",
    "max_independent_set",
    "named_graph",
    "parse_adjacency",
    "parse_edge_list",
    "parse_graph6",
    "parse_qasm",
    "phase_table",
    "plan_precision",
    "prop1_check",
    "quantum_histogram",
    "run",
    "run_survey",
    "sample",
    "save_report",
    "spectra_equal",
}

# Each subcommand's positionals and flags.
CLI_OPTIONS = {
    "invariant": {
        "graph", "--mode", "--shots", "--seed", "--fuse", "--output", "--dump-state",
        "--format", "--threads",
    },
    "compare": {"graph1", "graph2", "--output", "--format", "--threads"},
    "encode": {"graph", "--fuse", "--decompose-ccp", "--format"},
    "survey": {"--n", "--source", "--cache", "--output", "--threads"},
}


def test_public_surface_is_pinned():
    # A new public name is a deliberate change to this set, not a
    # helper exported only because a test calls it.
    assert set(qgi.__all__) == PUBLIC
    assert len(qgi.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert hasattr(qgi, name), name


# Public names that no module of src/qgi and no acceptance criterion
# calls, each kept on purpose.  Any other public name without a caller
# is a helper exported only because a test calls it.
DELIBERATE = {
    "init_state": "the reference gate loop",
    "apply_gate": "the reference gate loop",
    "marginal": "the reference gate loop",
    "parse_qasm": "reads back what encode writes",
    "max_independent_set": "a library call that the benchmark makes",
    "prop1_check": "a library call that the benchmark makes",
    "canonical_code": "the benchmark's tracer wraps it until ROADMAP item 2; item 4 deletes it",
}


def _loaded_names(path: Path) -> set[str]:
    """Every name and attribute that the module at path reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _public_members() -> dict[str, str]:
    """Each public method and property of a class in qgi.__all__, by
    name, as Class.name.  A dataclass field is data, not a member: at
    most its default sits in the class."""
    kinds = (property, functools.cached_property, staticmethod, classmethod)
    members = {}
    for owner in map(qgi.__dict__.get, qgi.__all__):
        if inspect.isclass(owner):
            for name, value in vars(owner).items():
                if not name.startswith("_") and (
                    inspect.isfunction(value) or isinstance(value, kinds)
                ):
                    members[name] = f"{owner.__name__}.{name}"
    return members


def test_every_public_name_has_a_caller():
    modules = [p for p in Path(qgi.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    in_src = set().union(*map(_loaded_names, modules))
    called = in_src | _loaded_names(Path(__file__).with_name("test_acceptance.py"))
    uncalled = sorted(set(qgi.__all__) - called - DELIBERATE.keys())
    assert not uncalled, f"public names with no caller: {uncalled}"
    members = _public_members()
    uncalled = sorted(members[name] for name in members.keys() - called)
    assert not uncalled, f"public members with no caller: {uncalled}"
    # The exceptions cannot go stale: each is public and still uncalled.
    private = sorted(DELIBERATE.keys() - set(qgi.__all__))
    assert not private, f"deliberate names that are not public: {private}"
    in_use = sorted(DELIBERATE.keys() & in_src)
    assert not in_use, f"deliberate names that src/qgi calls: {in_use}"


# The circuit model: the paper's gates, its one read-out register (the
# estimation qubits, so no field for it), and the terms a compiled
# phase-estimation circuit keeps.
GATE_KINDS = {"h", "cp", "ccp", "swap"}
CIRCUIT_FIELDS = ("n_graph", "n_est", "gates")
PROGRAM_FIELDS = ("bits", "graph", "t", "unit")


def test_circuit_model_is_pinned():
    # A new gate kind, circuit field or compiled term is a deliberate
    # change to these, as a public name is to PUBLIC.
    assert set(qgi.circuit._ARITY) == GATE_KINDS
    assert set(qgi.circuit._QASM_NAMES) == GATE_KINDS
    assert tuple(f.name for f in dataclasses.fields(qgi.Circuit)) == CIRCUIT_FIELDS
    assert tuple(f.name for f in dataclasses.fields(qgi.simulator._Program)) == PROGRAM_FIELDS


# Every module-level size cap in src/qgi.  Each guards a resource that
# can be named, and a new cap is a deliberate change to this set.
SIZE_CAPS = {
    "graphs.MAX_VERTICES",
    "graphs.CANONICAL_MAX_VERTICES",
    "graphs.ISOMORPHISM_MAX_VERTICES",
    "simulator.HARD_MAX_QUBITS",
    "survey.SURVEY_MAX_VERTICES",
}


def test_size_caps_are_pinned():
    # Also: one module sets the slice of the one subset-doubling kernel
    # and the key range of its tally, so a second edge-count kernel
    # cannot come back with its own.
    caps = set()
    slices = set()
    bins = set()
    for path in Path(qgi.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            names = {f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name)}
            caps |= {name for name in names if "MAX" in name}
            slices |= {name for name in names if name.endswith("._SLICE_BITS")}
            bins |= {name for name in names if name.endswith("._TALLY_BINS")}
    assert caps == SIZE_CAPS
    assert slices == {"graphs._SLICE_BITS"}
    assert bins == {"graphs._TALLY_BINS"}


def test_one_module_enumerates_labellings():
    # graphs._pair_weights is the one n! table, so a second brute-force
    # labelling engine cannot come back unnoticed.
    users = set()
    for path in Path(qgi.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            imported = isinstance(node, ast.ImportFrom) and node.module == "itertools" and any(
                alias.name == "permutations" for alias in node.names
            )
            attribute = isinstance(node, ast.Attribute) and node.attr == "permutations"
            if imported or attribute:
                users.add(path.stem)
    assert users == {"graphs"}


def test_one_module_names_the_circuits_qgi_builds():
    # circuit._built is the one list of the circuits that qgi builds,
    # which _compile and parse_qasm both accept, so the simulator cannot
    # grow a second list that drifts from it.
    path = Path(qgi.__file__).parent / "simulator.py"
    called = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    assert "_built" in called
    assert not called & {"build_qpe", "build_oracle"}


def test_cli_options_are_pinned():
    # A new flag is a deliberate change to these sets, as a public name
    # is to PUBLIC.
    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    options = {
        name: {a.option_strings[0] if a.option_strings else a.dest for a in sp._actions}
        - {"-h"}
        for name, sp in commands.choices.items()
    }
    assert options == CLI_OPTIONS
