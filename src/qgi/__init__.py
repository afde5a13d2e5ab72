"""Quantum edge-count histogram invariant for graph isomorphism.

A graph is encoded as a diagonal controlled-phase oracle; quantum phase
estimation over the uniform superposition of vertex subsets turns the
induced-subgraph edge counts into measurement outcomes.  The resulting
histogram is an isomorphism invariant, cross-checked everywhere against
a classical brute-force sweep.
"""

from .circuit import (
    Circuit,
    Gate,
    PrecisionPlan,
    build_oracle,
    build_qpe,
    export_qasm,
    parse_qasm,
    plan_precision,
)
from .errors import (
    CacheError,
    GraphParseError,
    InputError,
    InternalCheckError,
    QgiError,
    ResourceLimitError,
)
from .fixtures import FIXTURE_NAMES, is_fixture, named_graph
from .graphs import (
    Graph,
    are_isomorphic,
    canonical_code,
    encode_graph6,
    induced_edge_count,
    parse_adjacency,
    parse_edge_list,
    parse_graph6,
)
from .invariant import (
    CharPoly,
    EdgeHistogram,
    QpeOutcome,
    char_poly,
    classical_histogram,
    invariant_equal,
    max_independent_set,
    prop1_check,
    quantum_histogram,
    spectra_equal,
)
from .simulator import (
    apply_gate,
    dump_amplitudes,
    init_state,
    marginal,
    phase_table,
    run,
    sample,
)
from .survey import (
    SurveyReport,
    enumerate_classes,
    load_report,
    run_survey,
    save_report,
)

__version__ = "0.1.0"

__all__ = [
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
]
