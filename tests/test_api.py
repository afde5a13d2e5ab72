from __future__ import annotations

import qgi

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
    "Statevector",
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
    "from_canonical_code",
    "induced_edge_count",
    "init_state",
    "invariant_equal",
    "inverse_qft",
    "is_fixture",
    "load_report",
    "marginal",
    "max_independent_set",
    "named_graph",
    "parse_adjacency",
    "parse_edge_list",
    "parse_graph6",
    "parse_qasm",
    "peak_bytes",
    "phase_table",
    "plan_precision",
    "prop1_check",
    "qft",
    "quantum_histogram",
    "readout",
    "run",
    "run_survey",
    "sample",
    "save_report",
    "spectra_equal",
}


def test_public_surface_is_pinned():
    # A new public name is a deliberate change to this set, not a
    # helper exported only because a test calls it.
    assert set(qgi.__all__) == PUBLIC
    assert len(qgi.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert hasattr(qgi, name), name
