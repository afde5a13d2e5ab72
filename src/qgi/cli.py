"""Command-line front end: invariant tables, graph comparison, circuit
export, and the small-graph census.

Exit codes: 0 success, 2 bad input, 3 resource cap exceeded, 4 failed
internal self-check.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .circuit import build_qpe, export_qasm
from .errors import GraphParseError, InputError, InternalCheckError, QgiError, ResourceLimitError
from .fixtures import FIXTURE_NAMES, is_fixture, named_graph
from .graphs import (
    ISOMORPHISM_MAX_VERTICES,
    Graph,
    are_isomorphic,
    parse_adjacency,
    parse_edge_list,
    parse_graph6,
)
from .invariant import (
    classical_histogram,
    invariant_equal,
    quantum_histogram,
    spectra_equal,
)
from .simulator import dump_amplitudes, run
from .survey import SURVEY_MAX_VERTICES, load_report, run_survey, save_report

_TABLE_HEADER = "#(edges)  %Probability  #(subgraphs)"
_SHOTS_HEADER = "#(edges)  %Probability  #(shots)"


def _detect_format(text: str) -> str:
    if ";" in text:
        return "edgelist"
    # graph6 is one token and never uses a digit.  So a lone "0" (the
    # 1-vertex graph) and several 0/1 tokens are an adjacency matrix, any
    # other lone all-digit token is an edge list's vertex count, and any
    # other text of several tokens is an edge list with one field per line.
    toks = text.split()
    if toks == ["0"] or len(toks) > 1 and all(t in ("0", "1") for t in toks):
        return "adjacency"
    if len(toks) > 1 or toks and toks[0].isdigit():
        return "edgelist"
    return "graph6"


def load_graph(source: str, fmt: str = "auto") -> Graph:
    """Resolve a graph argument: fixture name, file path, or inline text."""
    if fmt == "auto" and is_fixture(source):
        return named_graph(source)
    text = source
    if os.path.isfile(source):
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphParseError(f"{source}: not UTF-8 text: {exc}") from None
    kind = _detect_format(text) if fmt == "auto" else fmt
    if kind == "graph6":
        return parse_graph6(text)
    if kind == "adjacency":
        return parse_adjacency(text)
    if kind == "edgelist":
        return parse_edge_list(text)
    raise InputError(f"unknown input format {kind!r}")


def _print_table(header: str, rows: list[tuple[int, float, int]]) -> None:
    lines = [f"{edges:>8}  {100.0 * prob:>12.2f}  {count:>11}\n" for edges, prob, count in rows]
    sys.stdout.write(header + "\n" + "".join(lines))


def cmd_invariant(args) -> int:
    g = load_graph(args.graph, args.format)
    if args.dump_state:
        # The one path that holds all 2^w amplitudes: `run` admits it
        # after the path opens and before any output is written.
        with open(args.dump_state, "w", encoding="utf-8") as fh:
            try:
                amps = run(build_qpe(g, fuse=True))
            except BaseException:
                if os.path.isfile(args.dump_state):
                    os.remove(args.dump_state)
                raise
            dump_amplitudes(amps, fh)
        del amps
    if args.mode == "classical":
        hist = classical_histogram(g)
        counts = hist.counts
        probs = hist.probabilities
        source = "classical"
    else:
        shots = args.shots if args.mode == "shots" else None
        out = quantum_histogram(g, shots=shots, seed=args.seed)
        plan = out.plan
        print(
            f"qpe: width={g.n + plan.t} graph_qubits={g.n} est_qubits={plan.t} "
            f"oracle_applications={plan.oracle_calls}",
            file=sys.stderr,
        )
        counts = out.shot_counts if out.histogram is None else out.histogram.counts
        probs = out.probabilities
        source = out.source

    if args.output == "json":
        print(
            json.dumps(
                {
                    "n": g.n,
                    "m": g.m,
                    "counts": list(counts),
                    "probabilities": list(probs),
                    "source": source,
                }
            )
        )
    elif args.output == "csv":
        lines = [f"{k},{probs[k]!r},{counts[k]}\n" for k in range(len(counts))]
        sys.stdout.write("edges,probability,count\n" + "".join(lines))
    else:
        header = _SHOTS_HEADER if source == "qpe-shots" else _TABLE_HEADER
        _print_table(header, [(k, probs[k], counts[k]) for k in range(len(counts))])
    return 0


def cmd_compare(args) -> int:
    g1 = load_graph(args.graph1, args.format)
    g2 = load_graph(args.graph2, args.format)
    inv_eq = invariant_equal(g1, g2)
    spec_eq = spectra_equal(g1, g2)
    iso = None
    witness = None
    if max(g1.n, g2.n) <= ISOMORPHISM_MAX_VERTICES:
        witness = are_isomorphic(g1, g2)
        iso = witness is not None
    if not inv_eq:
        verdict = "distinguished by invariant"
    elif iso is None:
        verdict = f"invariant-equal, isomorphism not checked (n > {ISOMORPHISM_MAX_VERTICES})"
    elif iso:
        verdict = "invariant-equal, isomorphic"
    else:
        verdict = "invariant-equal, NOT isomorphic (counterexample)"
    if args.output == "json":
        print(
            json.dumps(
                {
                    "invariant_equal": inv_eq,
                    "spectra_equal": spec_eq,
                    "isomorphic": iso,
                    "witness": None if witness is None else list(witness),
                    "verdict": verdict,
                }
            )
        )
    else:
        yn = {True: "yes", False: "no", None: "not checked"}
        print(f"invariant equal: {yn[inv_eq]}")
        print(f"spectra equal: {yn[spec_eq]}")
        print(f"isomorphic: {yn[iso]}")
        if witness is not None:
            # 1-indexed for display.
            print("witness: " + " ".join(str(v + 1) for v in witness))
        print(f"verdict: {verdict}")
    return 0


def cmd_encode(args) -> int:
    g = load_graph(args.graph, args.format)
    if g.m == 0:
        raise InputError("empty graph: no oracle")
    circuit = build_qpe(g, fuse=args.fuse)
    sys.stdout.write(export_qasm(circuit, decompose_ccp=args.decompose_ccp))
    return 0


def cmd_survey(args) -> int:
    # Validate the whole range before computing any lower order.
    if not 1 <= args.n <= SURVEY_MAX_VERTICES:
        error = InputError if args.n < 1 else ResourceLimitError
        raise error(
            f"survey source {args.source} supports 1 <= n <= {SURVEY_MAX_VERTICES}, got {args.n}"
        )
    reports, fresh = [], []
    for n in range(1, args.n + 1):
        report = None
        if args.cache:
            report = load_report(args.cache, n, args.source)
        if report is None:
            report = run_survey(n, source=args.source)
            fresh.append(report)
        reports.append(report)
    # One write for every order computed; an interrupted command caches none.
    if args.cache and fresh:
        save_report(fresh, args.cache)
    if args.output == "json":
        print(json.dumps([r.to_json() for r in reports]))
    else:
        for r in reports:
            print(f"{r.n}: {r.class_count} {r.distinct_quantum} {r.distinct_spectra}")
    return 0


def _add_input_opts(sp) -> None:
    sp.add_argument(
        "--format",
        choices=("auto", "graph6", "adjacency", "edgelist"),
        default="auto",
        help="input format (auto: fixture name, then sniff text)",
    )


def _add_threads(sp) -> None:
    sp.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility and ignored: every sweep runs on one thread",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and then shared: `parse_args`
    returns a fresh Namespace on every call, so no command sees another's
    options."""
    parser = argparse.ArgumentParser(
        prog="qgi",
        description="Edge-count histogram invariant for graph isomorphism, "
        "computed classically or by simulated quantum phase estimation.",
        epilog=f"Built-in fixture graphs: {', '.join(FIXTURE_NAMES)}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("invariant", help="histogram of induced-subgraph edge counts")
    sp.add_argument("graph", help="fixture name, file path, or inline graph text")
    sp.add_argument(
        "--mode",
        choices=("classical", "qpe", "shots"),
        default="classical",
        help="brute-force sweep, exact simulated QPE, or sampled QPE",
    )
    sp.add_argument("--shots", type=int, default=1_000_000, help="samples in shots mode")
    sp.add_argument("--seed", type=int, default=0, help="sampling seed")
    sp.add_argument(
        "--fuse",
        action="store_true",
        help="accepted for compatibility and ignored: QPE always runs the fused circuit",
    )
    sp.add_argument(
        "--output", choices=("pretty", "json", "csv"), default="pretty"
    )
    sp.add_argument(
        "--dump-state",
        metavar="PATH",
        help="also write the QPE amplitudes with |amp| > 1e-12 as JSON [index, re, im] triples",
    )
    _add_input_opts(sp)
    _add_threads(sp)
    sp.set_defaults(func=cmd_invariant)

    sp = sub.add_parser("compare", help="compare two graphs by invariant and spectrum")
    sp.add_argument("graph1")
    sp.add_argument("graph2")
    sp.add_argument("--output", choices=("pretty", "json"), default="pretty")
    _add_input_opts(sp)
    _add_threads(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("encode", help="emit the QPE circuit as OpenQASM 3")
    sp.add_argument("graph")
    sp.add_argument("--fuse", action="store_true", help="fuse controlled oracle powers")
    sp.add_argument(
        "--decompose-ccp",
        action="store_true",
        help="lower doubly-controlled phases to cp/cx pairs",
    )
    _add_input_opts(sp)
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("survey", help="census of all graphs with 1..N vertices")
    sp.add_argument("--n", type=int, required=True, help="largest vertex count")
    sp.add_argument(
        "--source",
        choices=("classical", "qpe-exact"),
        default="classical",
        help="invariant engine for the census",
    )
    sp.add_argument(
        "--cache",
        metavar="PATH",
        help="JSON-lines report cache",
    )
    sp.add_argument("--output", choices=("pretty", "json"), default="pretty")
    _add_threads(sp)
    sp.set_defaults(func=cmd_survey)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4
    except QgiError as exc:  # any stragglers count as internal
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
