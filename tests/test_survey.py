from __future__ import annotations

import itertools
import json
import os
import tracemalloc

import pytest
from conftest import save_report_alone

import qgi.graphs
from qgi import (
    CacheError,
    Graph,
    InputError,
    ResourceLimitError,
    are_isomorphic,
    canonical_code,
    classical_histogram,
    enumerate_classes,
    load_report,
    parse_graph6,
    run_survey,
    save_report,
)
from qgi import survey
from qgi.survey import CACHE_VERSION, _report_digest

# number of isomorphism classes on exactly n vertices
CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


# --- enumeration ---

def test_class_counts():
    for n, expect in CLASS_COUNTS.items():
        assert len(enumerate_classes(n)) == expect, n


def test_representatives_are_distinct_classes():
    for n in range(1, 6):
        reps = enumerate_classes(n)
        assert all(g.n == n for g in reps)
        for a, b in itertools.combinations(reps, 2):
            assert are_isomorphic(a, b) is None


def test_representatives_sorted_by_canonical_code():
    for n in (4, 5, 6):
        codes = [canonical_code(g) for g in enumerate_classes(n)]
        assert codes == sorted(codes)
        assert len(set(codes)) == len(codes)


def test_order_eight_classes_in_bounded_memory():
    # OEIS A000088; one class's block of extension codes is 20.6 MB,
    # the labelling table 4.5 MB.
    qgi.graphs._pair_weights.cache_clear()
    tracemalloc.start()
    try:
        count = len(enumerate_classes(8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 12346
    assert peak < 64 << 20


def test_classes_match_the_graph_atlas():
    nx = pytest.importorskip("networkx")
    atlas: dict[int, set[str]] = {}
    for h in nx.graph_atlas_g():
        if h.number_of_nodes():
            g = Graph.from_edges(h.number_of_nodes(), h.edges())
            atlas.setdefault(g.n, set()).add(canonical_code(g))
    for n in range(1, 8):
        assert [canonical_code(g) for g in enumerate_classes(n)] == sorted(atlas[n]), n


def test_enumeration_caps():
    # An order below 1 is bad input; above 8 it is a resource cap.
    for n in (0, -1):
        with pytest.raises(InputError):
            enumerate_classes(n)
    with pytest.raises(ResourceLimitError):
        enumerate_classes(9)


# --- survey statistics ---

def test_survey_small_orders_complete():
    # below n=7 the histogram separates every class
    for n, (classes, dq, ds) in {
        3: (4, 4, 4),
        4: (11, 11, 11),
        5: (34, 34, 33),
        6: (156, 156, 151),
    }.items():
        report = run_survey(n)
        assert report.class_count == classes
        assert report.distinct_quantum == dq
        assert report.distinct_spectra == ds
        assert report.collisions == ()


def test_survey_first_collisions_at_order_seven():
    report = run_survey(7)
    assert report.class_count == 1044
    assert report.distinct_quantum == 1021
    assert report.distinct_spectra == 988
    assert len(report.collisions) == 23
    assert list(report.collisions) == sorted(report.collisions)
    for a6, b6 in report.collisions:
        a, b = parse_graph6(a6), parse_graph6(b6)
        assert are_isomorphic(a, b) is None
        assert classical_histogram(a).counts == classical_histogram(b).counts


def test_survey_qpe_source_agrees_with_classical():
    quantum = run_survey(4, source="qpe-exact")
    classical = run_survey(4)
    assert quantum.to_json() == classical.to_json()
    assert quantum.source == "qpe-exact"


def test_survey_caps_and_sources():
    # One order range for both sources, checked before any enumeration:
    # an order below 1 is bad input, one above 8 a resource cap.
    for source in ("classical", "qpe-exact"):
        with pytest.raises(InputError):
            run_survey(0, source=source)
        with pytest.raises(ResourceLimitError):
            run_survey(9, source=source)
    with pytest.raises(InputError, match="unknown survey source"):
        run_survey(4, source="oracle")


def test_survey_report_json_shape():
    doc = run_survey(4).to_json()
    assert doc == {
        "n": 4,
        "classes": 11,
        "distinct_quantum": 11,
        "distinct_spectra": 11,
        "collisions": [],
    }


# --- cache ---

def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    report = run_survey(4)
    save_report([report], path)
    loaded = load_report(path, 4, "classical")
    assert loaded is not None
    assert loaded.to_json() == report.to_json()
    assert loaded == report


def test_cache_miss_returns_none(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    assert load_report(path, 4, "classical") is None  # no file
    save_report([run_survey(3)], path)
    assert load_report(path, 4, "classical") is None  # wrong n
    assert load_report(path, 3, "qpe-exact") is None  # wrong source


def test_cache_preserves_other_entries(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    save_report([run_survey(3)], path)
    save_report([run_survey(4)], path)
    save_report([run_survey(3)], path)  # replaces, must not drop n=4
    assert load_report(path, 3, "classical").class_count == 4
    assert load_report(path, 4, "classical").class_count == 11
    with open(path, encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 2


def test_batch_save_equals_saving_each_report_alone(tmp_path):
    # Existing lines of other keys keep their order, replaced keys move
    # to the end in the order given, a repeated key keeps its last report,
    # and a line whose key is unhashable JSON is kept.
    batch_path, ref_path = tmp_path / "batch.jsonl", tmp_path / "ref.jsonl"
    r3, r4 = run_survey(3), run_survey(4)
    q3 = run_survey(3, source="qpe-exact")
    odd = survey.SurveyReport(3, "classical", 5, 5, 5, ())
    for report in (r4, q3, r3):
        save_report_alone(report, ref_path)
    with open(ref_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"n": [3], "source": "classical", "version": CACHE_VERSION}) + "\n")
    batch_path.write_bytes(ref_path.read_bytes())
    batch = [odd, run_survey(1), r4, r3]
    save_report(batch, str(batch_path))
    for report in batch:
        save_report_alone(report, ref_path)
    assert batch_path.read_bytes() == ref_path.read_bytes()
    assert load_report(str(batch_path), 3, "classical") == r3


def test_interrupted_save_keeps_previous_cache(tmp_path, monkeypatch):
    path = str(tmp_path / "cache.jsonl")
    old = [run_survey(n) for n in (1, 2, 3)]
    for report in old:
        save_report([report], path)
    with open(path, "rb") as fh:
        before = fh.read()

    class Interrupted(Exception):
        pass

    real_dumps = json.dumps
    lines = []

    def dumps(obj, **kwargs):
        # Fail while writing the second cache line.
        if "sha256" in obj:
            lines.append(obj)
            if len(lines) == 2:
                raise Interrupted
        return real_dumps(obj, **kwargs)

    monkeypatch.setattr(survey.json, "dumps", dumps)
    with pytest.raises(Interrupted):
        save_report([run_survey(4)], path)
    monkeypatch.undo()
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["cache.jsonl"]
    for report in old:
        assert load_report(path, report.n, "classical").to_json() == report.to_json()


def test_cache_version_mismatch_is_a_miss(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    save_report([run_survey(3)], path)
    with open(path, encoding="utf-8") as fh:
        entry = json.loads(fh.read())
    entry["version"] = CACHE_VERSION + 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")
    assert load_report(path, 3, "classical") is None


def test_cache_tamper_detected(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    save_report([run_survey(3)], path)
    with open(path, encoding="utf-8") as fh:
        entry = json.loads(fh.read())
    entry["report"]["classes"] = 5
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")
    with pytest.raises(CacheError, match="checksum"):
        load_report(path, 3, "classical")


def test_cache_rejects_corrupt_lines(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{not json\n")
    with pytest.raises(CacheError, match="not valid JSON"):
        load_report(path, 3, "classical")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('"a bare string"\n')
    with pytest.raises(CacheError, match="expected a JSON object"):
        load_report(path, 3, "classical")


def test_cache_rejects_malformed_report(tmp_path):
    # well-formed line, valid checksum, but the payload is missing keys
    path = str(tmp_path / "cache.jsonl")
    payload = {"n": 3, "collisions": []}
    entry = {
        "version": CACHE_VERSION,
        "n": 3,
        "source": "classical",
        "sha256": _report_digest(payload),
        "report": payload,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")
    with pytest.raises(CacheError, match="malformed"):
        load_report(path, 3, "classical")

