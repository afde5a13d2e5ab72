from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import qgi
import qgi.cli
import qgi.invariant
import qgi.simulator
import qgi.survey
from qgi import (
    FIXTURE_NAMES,
    InputError,
    build_qpe,
    classical_histogram,
    encode_graph6,
    named_graph,
    parse_qasm,
)
from qgi.cli import build_parser, load_graph, main

from conftest import graphs, save_report_alone

C4_TABLE = """\
#(edges)  %Probability  #(subgraphs)
       0         43.75            7
       1         25.00            4
       2         25.00            4
       3          0.00            0
       4          6.25            1
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- graph loading ---

def test_load_graph_fixture_file_and_inline(tmp_path):
    inline = load_graph("A_")  # K2 in graph6
    assert (inline.n, inline.m) == (2, 1)
    path = tmp_path / "square.txt"
    path.write_text("4; 0 1; 1 2; 2 3; 0 3\n")
    from_file = load_graph(str(path))
    assert classical_histogram(from_file).counts == classical_histogram(named_graph("c4")).counts
    assert load_graph("petersen").m == 15


@pytest.mark.parametrize("fmt", ["auto", "graph6", "adjacency", "edgelist"])
@given(
    text=st.one_of(
        st.text(),
        st.text(alphabet="0123456789 ;\n-"),
        st.text(alphabet=[chr(c) for c in range(62, 127)]),
    )
)
def test_load_graph_raises_only_input_error(fmt, text):
    # Any text is a graph or a clean rejection (GraphParseError is an
    # InputError), never a crash.
    assume(not os.path.isfile(text))
    try:
        load_graph(text, fmt)
    except InputError:
        pass


def test_load_graph_format_sniffing():
    adjacency = "0 1 1\n1 0 0\n1 0 0"
    g = load_graph(adjacency)
    assert (g.n, g.m) == (3, 2)
    edgelist = load_graph("3; 0 2")
    assert (edgelist.n, edgelist.m) == (3, 1)
    forced = load_graph("B_", fmt="graph6")
    assert forced.n == 3


def test_edge_list_one_field_per_line(capsys, tmp_path):
    # Newline-separated edge lists were read as graph6 and refused.
    path = tmp_path / "el.txt"
    path.write_text("3\n0 1\n1 2\n")
    code, out, err = run_cli(capsys, "invariant", str(path))
    assert code == 0, err
    assert out == run_cli(capsys, "invariant", "3; 0 1; 1 2")[1]
    # An edgeless one is its vertex count alone: one all-digit token,
    # never graph6, and an adjacency matrix only for "0".
    path.write_text("1\n")
    for text, n in (("2", 2), ("1", 1), (str(path), 1), ("0", 1)):
        code, out, err = run_cli(capsys, "invariant", text, "--output", "json")
        assert code == 0, err
        doc = json.loads(out)
        assert (doc["n"], doc["counts"]) == (n, [1 << n])


@given(g=graphs())
def test_every_format_loads_back_under_auto(g):
    # graph6 is one token without digits, an adjacency matrix all 0/1
    # tokens, and an edge list has a ';', several tokens, or its vertex
    # count alone.
    adjacency = "\n".join(
        " ".join(str(row >> j & 1) for j in range(g.n)) for row in g.adj
    )
    pairs = [f"{i} {j}" for i, j in g.edges()]
    texts = [encode_graph6(g), adjacency, f"{g.n};" + "".join(f" {p};" for p in pairs)]
    texts.append("\n".join([str(g.n), *pairs]) + "\n")
    for text in texts:
        assert load_graph(text) == g, text


def test_invariant_single_vertex_adjacency(capsys):
    # "0" is the 1x1 adjacency matrix; graph6 has no character 0.
    code, out, err = run_cli(capsys, "invariant", "0", "--output", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert (doc["n"], doc["m"], doc["counts"]) == (1, 0, [2])


# --- invariant command ---

def test_invariant_c4_classical_table(capsys):
    code, out, err = run_cli(capsys, "invariant", "c4")
    assert code == 0
    assert out == C4_TABLE
    assert err == ""


def test_invariant_c4_qpe_matches_classical_table(capsys):
    code, out, err = run_cli(capsys, "invariant", "c4", "--mode", "qpe")
    assert code == 0
    assert out == C4_TABLE
    assert err == (
        "qpe: width=7 graph_qubits=4 est_qubits=3 oracle_applications=7\n"
    )


def test_invariant_json_schema(capsys):
    code, out, _ = run_cli(capsys, "invariant", "m3", "--mode", "qpe", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["m"] == 3
    assert doc["counts"] == [8, 5, 2, 1]
    assert doc["source"] == "qpe-exact"
    assert doc["probabilities"] == pytest.approx([0.5, 0.3125, 0.125, 0.0625])


def test_invariant_csv(capsys):
    code, out, _ = run_cli(capsys, "invariant", "c4", "--output", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "edges,probability,count"
    assert lines[1] == "0,0.4375,7"
    assert lines[-1] == "4,0.0625,1"


def test_invariant_single_vertex(capsys):
    code, out, _ = run_cli(capsys, "invariant", "@", "--mode", "qpe", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["m"], doc["counts"]) == (1, 0, [2])


def test_invariant_shots_reproducible(capsys):
    argv = ("invariant", "m3", "--mode", "shots", "--shots", "20000",
            "--seed", "11", "--output", "json")
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["source"] == "qpe-shots"
    assert sum(doc["counts"]) == 20000
    assert doc["probabilities"][0] == pytest.approx(0.5, abs=0.05)


def test_invariant_shots_table_header(capsys):
    _, out, _ = run_cli(capsys, "invariant", "m3", "--mode", "shots", "--shots", "100")
    assert out.splitlines()[0] == "#(edges)  %Probability  #(shots)"


def test_invariant_fuse_same_result(capsys):
    _, plain, _ = run_cli(capsys, "invariant", "g1", "--mode", "qpe", "--output", "json")
    _, fused, _ = run_cli(capsys, "invariant", "g1", "--mode", "qpe", "--fuse", "--output", "json")
    assert plain == fused


def test_invariant_dump_state(capsys, tmp_path):
    path = tmp_path / "state.json"
    code, _, _ = run_cli(
        capsys, "invariant", "c4", "--mode", "qpe", "--dump-state", str(path)
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["qubits"] == 7
    norm = sum(re * re + im * im for _, re, im in doc["amplitudes"])
    assert norm == pytest.approx(1.0, abs=1e-9)
    indices = [i for i, _, _ in doc["amplitudes"]]
    assert len(set(indices)) == len(indices)


def test_invariant_dump_state_simulates_once(capsys, tmp_path, monkeypatch):
    calls = []

    def counted(run):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(qgi.cli, "run", counted(qgi.simulator.run))
    monkeypatch.setattr(qgi.simulator, "run", counted(qgi.simulator.run))
    path = tmp_path / "state.json"
    code, _, _ = run_cli(
        capsys, "invariant", "m3", "--mode", "qpe", "--dump-state", str(path)
    )
    assert code == 0
    assert len(calls) == 1
    assert json.loads(path.read_text())["qubits"] == 6


def test_invariant_memory_refusal_exit_3(capsys, monkeypatch, tmp_path):
    # Only --dump-state holds all 2^w amplitudes, so only it is refused.
    monkeypatch.setattr(qgi.simulator, "_mem_available", lambda: 1 << 10)
    path = tmp_path / "state.json"
    code, out, err = run_cli(capsys, "invariant", "c4", "--mode", "qpe", "--dump-state", str(path))
    assert code == 3
    assert out == "" and "MiB available" in err
    assert not path.exists()
    code, out, _ = run_cli(capsys, "invariant", "c4", "--mode", "qpe")
    assert code == 0 and out == C4_TABLE


def test_invariant_dump_state_checks_its_path_before_running(capsys, monkeypatch, tmp_path):
    # A destination that cannot be opened fails before the statevector
    # is allocated.
    def refuse(*args, **kwargs):
        raise AssertionError("run allocated the state before the path was checked")

    monkeypatch.setattr(qgi.cli, "run", refuse)
    path = tmp_path / "missing" / "state.json"
    code, out, err = run_cli(capsys, "invariant", "c4", "--mode", "qpe", "--dump-state", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "missing" in err
    assert not path.parent.exists()


def test_invariant_dump_state_in_classical_mode(capsys, monkeypatch, tmp_path):
    # --dump-state writes the QPE circuit's amplitudes in every mode.
    qpe, classical = tmp_path / "qpe.json", tmp_path / "classical.json"
    assert run_cli(capsys, "invariant", "petersen", "--mode", "qpe",
                   "--dump-state", str(qpe))[0] == 0
    code, out, _ = run_cli(capsys, "invariant", "petersen", "--dump-state", str(classical))
    assert code == 0 and out == run_cli(capsys, "invariant", "petersen")[1]
    assert classical.read_bytes() == qpe.read_bytes()
    assert len(json.loads(classical.read_text())["amplitudes"]) == 1024
    monkeypatch.setattr(qgi.simulator, "_mem_available", lambda: 1 << 10)
    refused = tmp_path / "refused.json"
    code, out, _ = run_cli(capsys, "invariant", "petersen", "--dump-state", str(refused))
    assert code == 3 and out == ""
    assert not refused.exists()


def test_cli_never_calls_the_gate_loop_reference(capsys, monkeypatch, tmp_path):
    commands = [
        ["invariant", name, "--mode", mode] for name in FIXTURE_NAMES for mode in ("qpe", "shots")
    ]
    commands += [["survey", "--n", "5", "--source", "qpe-exact"]]
    expect = {tuple(argv): run_cli(capsys, *argv)[1] for argv in commands}

    def refuse(*args, **kwargs):
        raise AssertionError("a reference-only function ran")

    for module in (qgi, qgi.cli, qgi.invariant, qgi.simulator, qgi.survey):
        for name in ("apply_gate", "init_state", "marginal"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for argv in commands:
        assert run_cli(capsys, *argv)[:2] == (0, expect[tuple(argv)]), argv
    path = tmp_path / "state.json"
    argv = ["invariant", "g1", "--mode", "qpe"]
    assert run_cli(capsys, *argv, "--dump-state", str(path))[:2] == (0, expect[tuple(argv)])
    assert json.loads(path.read_text())["qubits"] == 11


def test_invariant_threads_flag(capsys):
    _, out, _ = run_cli(capsys, "invariant", "petersen", "--threads", "4", "--output", "json")
    assert json.loads(out)["counts"][0] == 76


@pytest.mark.parametrize(
    ("argv", "ignored"),
    [
        (("invariant", "petersen", "--mode", "qpe"), ("--threads", "1", "--fuse")),
        (("compare", "c4", "m2"), ("--threads", "1")),
        (("survey", "--n", "3"), ("--threads", "1")),
    ],
)
def test_ignored_flags_leave_stdout_unchanged(capsys, argv, ignored):
    # The argv forms the benchmark (qgibench/execute.py) sends.  The
    # flags can go in the benchmark change that stops sending them.
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    code, flagged, _ = run_cli(capsys, *argv, *ignored)
    assert code == 0
    assert flagged == plain


def test_invariant_negative_seed_exit_2(capsys):
    code, out, err = run_cli(capsys, "invariant", "c4", "--mode", "shots", "--seed", "-1")
    assert code == 2
    assert out == "" and err == "error: seed must be non-negative, got -1\n"


def test_invariant_edgeless_shots_are_sampled(capsys):
    argv = ("invariant", "3;", "--mode", "shots")
    code, out, err = run_cli(capsys, *argv, "--shots", "100", "--output", "json")
    assert code == 0, err
    assert json.loads(out) == {
        "n": 3, "m": 0, "counts": [100], "probabilities": [1.0], "source": "qpe-shots"
    }
    code, out, err = run_cli(capsys, *argv, "--shots", "-5", "--seed", "-1")
    assert code == 2
    assert out == "" and err == "error: shots must be positive, got -5\n"
    # One multinomial draw takes any int64 shot count at once.
    code, out, err = run_cli(capsys, *argv, "--shots", str((1 << 63) - 1), "--output", "json")
    assert code == 0, err
    assert json.loads(out)["counts"] == [(1 << 63) - 1]
    code, out, err = run_cli(capsys, *argv, "--shots", str(1 << 63))
    assert code == 2
    assert out == "" and err == f"error: shots must be below 2^63, got {1 << 63}\n"


def test_non_utf8_files_exit_2(capsys, tmp_path):
    path = tmp_path / "bytes.bin"
    path.write_bytes(b"\xff\xfe")
    for argv in (("invariant", str(path)), ("survey", "--n", "3", "--cache", str(path))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith(f"error: {path}: not UTF-8 text: ")
    assert path.read_bytes() == b"\xff\xfe"


# --- compare command ---

def test_compare_isomorphic_pair(capsys):
    code, out, _ = run_cli(capsys, "compare", "m1", "m2")
    assert code == 0
    assert out == (
        "invariant equal: yes\n"
        "spectra equal: yes\n"
        "isomorphic: yes\n"
        "witness: 1 3 2 4\n"
        "verdict: invariant-equal, isomorphic\n"
    )


def test_compare_distinguished(capsys):
    code, out, _ = run_cli(capsys, "compare", "m1", "m3")
    assert code == 0
    assert "verdict: distinguished by invariant" in out
    assert "isomorphic: no" in out


def test_compare_counterexample(capsys):
    code, out, _ = run_cli(capsys, "compare", "g1", "g2")
    assert code == 0
    assert "verdict: invariant-equal, NOT isomorphic (counterexample)" in out
    assert "spectra equal: no" in out


def test_compare_petersen_prism(capsys):
    code, out, _ = run_cli(capsys, "compare", "petersen", "prism5")
    assert code == 0
    assert "verdict: distinguished by invariant" in out


def test_compare_json(capsys):
    code, out, _ = run_cli(capsys, "compare", "m1", "m2", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "invariant_equal": True,
        "spectra_equal": True,
        "isomorphic": True,
        "witness": [0, 2, 1, 3],
        "verdict": "invariant-equal, isomorphic",
    }


def test_compare_isomorphism_skipped_above_cap(capsys, tmp_path):
    edges = "; ".join(f"{i} {(i + 1) % 11}" for i in range(11))
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(f"11; {edges}\n")
    # same cycle with two labels exchanged
    relabel = {0: 5, 5: 0}
    pairs = [(relabel.get(i, i), relabel.get((i + 1) % 11, (i + 1) % 11)) for i in range(11)]
    b.write_text("11; " + "; ".join(f"{min(x, y)} {max(x, y)}" for x, y in pairs) + "\n")
    code, out, _ = run_cli(capsys, "compare", str(a), str(b))
    assert code == 0
    assert "isomorphic: not checked" in out
    assert "verdict: invariant-equal, isomorphism not checked (n > 10)" in out


def test_compare_reports_spectra_above_16_vertices(capsys):
    cycle = [(i, (i + 1) % 20) for i in range(20)]
    c20 = "20; " + "; ".join(f"{a} {b}" for a, b in cycle)
    # The same cycle relabelled by i -> 7i mod 20, a different edge set.
    relabelled = "20; " + "; ".join(f"{7 * a % 20} {7 * b % 20}" for a, b in cycle)
    p20 = "20; " + "; ".join(f"{i} {i + 1}" for i in range(19))
    _, out, _ = run_cli(capsys, "compare", c20, relabelled)
    assert "spectra equal: yes\n" in out
    _, out, _ = run_cli(capsys, "compare", c20, p20)
    assert "spectra equal: no\n" in out
    for other, want in ((relabelled, True), (p20, False)):
        code, out, _ = run_cli(capsys, "compare", c20, other, "--output", "json")
        assert code == 0
        assert json.loads(out)["spectra_equal"] is want


# --- encode command ---

def test_encode_roundtrip(capsys):
    code, out, err = run_cli(capsys, "encode", "c4", "--fuse")
    assert code == 0 and err == ""
    assert out.startswith("OPENQASM 3.0;\n")
    assert "qubit[4] g;\n" in out and "qubit[3] e;\n" in out and "bit[3] meas;\n" in out
    assert "ctrl @ cp(0.785398163397) e[0], g[0], g[1];" in out
    assert parse_qasm(out) == build_qpe(named_graph("c4"), fuse=True)
    _, again, _ = run_cli(capsys, "encode", "c4", "--fuse")
    assert again == out


def test_encode_petersen_registers(capsys):
    _, out, _ = run_cli(capsys, "encode", "petersen")
    assert "qubit[10] g;" in out and "qubit[4] e;" in out
    assert out.count("ctrl @ cp") == 225


def test_encode_decompose_ccp(capsys):
    _, out, _ = run_cli(capsys, "encode", "c4", "--decompose-ccp")
    assert "ctrl @" not in out
    assert "cx e[0], g[0];" in out


def test_encode_has_no_width_cap(capsys):
    # The 24-vertex path needs width 29: too wide to simulate, not to emit.
    path = "24; " + "; ".join(f"{i} {i + 1}" for i in range(23))
    code, out, err = run_cli(capsys, "encode", path)
    assert code == 0 and err == ""
    assert "qubit[24] g;\nqubit[5] e;\nbit[5] meas;\n" in out
    assert parse_qasm(out) == build_qpe(load_graph(path))


def test_encode_rejects_empty_graph(capsys):
    code, out, err = run_cli(capsys, "encode", "3;")
    assert code == 2
    assert out == ""
    assert err == "error: empty graph: no oracle\n"


# --- survey command ---

def test_survey_table(capsys):
    code, out, _ = run_cli(capsys, "survey", "--n", "4")
    assert code == 0
    assert out == "1: 1 1 1\n2: 2 2 2\n3: 4 4 4\n4: 11 11 11\n"


def test_survey_json(capsys):
    code, out, _ = run_cli(capsys, "survey", "--n", "3", "--output", "json")
    assert code == 0
    docs = json.loads(out)
    assert [d["classes"] for d in docs] == [1, 2, 4]


def test_survey_cache_flag(capsys, tmp_path):
    cache = tmp_path / "reports.jsonl"
    code, out1, _ = run_cli(capsys, "survey", "--n", "3", "--cache", str(cache))
    assert code == 0
    assert len(cache.read_text().splitlines()) == 3
    before = cache.read_text()
    code, out2, _ = run_cli(capsys, "survey", "--n", "3", "--cache", str(cache))
    assert code == 0
    assert out2 == out1
    assert cache.read_text() == before  # second run served from cache


def test_survey_enumerates_each_order_once(capsys, tmp_path, monkeypatch):
    orders = []
    enumerate_classes = qgi.survey.enumerate_classes
    monkeypatch.setattr(
        qgi.survey, "enumerate_classes", lambda n: orders.append(n) or enumerate_classes(n)
    )
    code, plain, _ = run_cli(capsys, "survey", "--n", "5")
    assert code == 0 and orders == [1, 2, 3, 4, 5]
    # Orders 1..3 cached: only the missing ones are enumerated, and the
    # table is the same.
    cache = str(tmp_path / "reports.jsonl")
    run_cli(capsys, "survey", "--n", "3", "--cache", cache)
    orders.clear()
    code, cached, _ = run_cli(capsys, "survey", "--n", "5", "--cache", cache)
    assert code == 0 and cached == plain and orders == [4, 5]
    orders.clear()
    code, warm, _ = run_cli(capsys, "survey", "--n", "5", "--cache", cache)
    assert code == 0 and warm == plain and orders == []


def test_survey_writes_its_cache_once(capsys, tmp_path, monkeypatch):
    # One os.replace per command that computed an order, none for a
    # warm rerun; the file is the one per-order saves would leave.
    replaced = []
    real_replace = os.replace
    monkeypatch.setattr(os, "replace", lambda a, b: replaced.append(b) or real_replace(a, b))
    cache, ref, other = (tmp_path / f for f in ("reports.jsonl", "ref.jsonl", "other.jsonl"))
    reports = [qgi.survey.run_survey(n) for n in range(1, 5)]

    code, cold, _ = run_cli(capsys, "survey", "--n", "4", "--cache", str(cache))
    assert code == 0 and replaced == [str(cache)]
    for report in reports:
        save_report_alone(report, ref)
    assert cache.read_bytes() == ref.read_bytes()

    replaced.clear()
    before = cache.read_bytes()
    code, warm, _ = run_cli(capsys, "survey", "--n", "4", "--cache", str(cache))
    assert code == 0 and warm == cold and replaced == []
    assert cache.read_bytes() == before

    # Order 2's line deleted and a qpe-exact line put first: the rerun
    # recomputes order 2 alone and writes once.
    save_report_alone(qgi.survey.run_survey(3, source="qpe-exact"), other)
    lines = before.splitlines(keepends=True)
    start = other.read_bytes() + b"".join(lines[:1] + lines[2:])
    cache.write_bytes(start)
    ref.write_bytes(start)
    replaced.clear()
    code, again, _ = run_cli(capsys, "survey", "--n", "4", "--cache", str(cache))
    assert code == 0 and again == cold and replaced == [str(cache)]
    save_report_alone(reports[1], ref)
    assert cache.read_bytes() == ref.read_bytes()
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


def test_survey_cap_exit_code(capsys):
    for source in ("classical", "qpe-exact"):
        code, out, err = run_cli(capsys, "survey", "--n", "9", "--source", source)
        assert code == 3 and out == ""
        assert err.startswith("error: ")
    # An order below 1 is bad input, not a resource cap.
    for n in ("0", "-1"):
        code, out, err = run_cli(capsys, "survey", "--n", n)
        assert code == 2 and out == ""
        assert err.startswith("error: ")


# --- exit codes and entry point ---

def test_exit_code_bad_input(capsys):
    code, _, err = run_cli(capsys, "invariant", "Ao")  # nonzero graph6 padding
    assert code == 2 and err.startswith("error: ")
    code, _, _ = run_cli(capsys, "invariant", "not-a-graph")
    assert code == 2


def test_exit_code_resource_limit(capsys, tmp_path):
    # 24 vertices and 16 edges need 5 estimation qubits: width 29 > 28.
    # The read-out never holds the statevector, so it has no width cap.
    wide = "24; " + "; ".join(f"{i} {i + 1}" for i in range(16))
    code, out, _ = run_cli(capsys, "invariant", wide, "--mode", "qpe")
    assert code == 0 and out == run_cli(capsys, "invariant", wide)[1]
    # --dump-state runs first and is refused before it allocates.
    path = tmp_path / "state.json"
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "invariant", wide, "--mode", "qpe", "--dump-state", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "28-qubit limit" in err
    assert not path.exists()
    assert peak < 1 << 20


def test_invariant_qpe_on_24_vertices(capsys):
    # Width 25: the read-out sweeps the 2^24 subsets in slices.
    code, out, _ = run_cli(capsys, "invariant", "24; 0 1", "--mode", "qpe")
    assert code == 0
    assert out == run_cli(capsys, "invariant", "24; 0 1")[1]


def test_argparse_rejects_unknown_mode():
    with pytest.raises(SystemExit):
        main(["invariant", "c4", "--mode", "magic"])


def test_commands_in_one_process_share_one_parser(capsys):
    # The parser is built once per process and returns a fresh Namespace
    # per command: no option or default of one command reaches the next.
    commands = [
        ["invariant", "petersen", "--mode", "qpe"],
        ["invariant", "petersen"],
        ["invariant", "petersen", "--no-such-option"],
        ["compare", "g1", "g2"],
        ["survey", "--n", "3"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in commands:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0]
    parser = build_parser()
    assert [outcome(argv) for argv in commands] == fresh
    assert build_parser() is parser


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qgi.cli", "invariant", "c4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == C4_TABLE


def _readme_examples() -> list[str]:
    """Every fenced block of README.md that starts with `$ qgi`."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", text, flags=re.M | re.S)
    return [block for block in blocks if block.startswith("$ qgi ")]


def test_readme_examples_match_the_cli(capsys):
    # The qpe: line of a block is what the command prints on stderr, the
    # rest what it prints on stdout.
    examples = _readme_examples()
    assert len(examples) == 3
    for block in examples:
        command, *lines = block.splitlines(keepends=True)
        code, out, err = run_cli(capsys, *shlex.split(command)[2:])
        assert code == 0, command
        assert err == "".join(ln for ln in lines if ln.startswith("qpe:")), command
        assert out == "".join(ln for ln in lines if not ln.startswith("qpe:")), command

