"""Census of small graphs: does the histogram invariant separate
isomorphism classes, and where does it collide?

Classes are enumerated by extending each (n-1)-vertex representative
with one new vertex over all 2^(n-1) neighborhoods, whose canonical
codes graphs._extension_codes finds in one block per representative.
Representatives are rebuilt from sorted codes, so the output is
deterministic.  On one thread of 2 vCPUs `survey --n 8` takes about 4.5 s,
5.1 s with `--source qpe-exact`, whose histograms need no circuit built.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import CacheError, InputError, InternalCheckError, ResourceLimitError
from .graphs import Graph, _extension_codes, _from_pair_bits, are_isomorphic, encode_graph6
from .invariant import char_poly, classical_histogram, quantum_histogram

# The cap guards one representative's block of extension codes, 2^(n-1)
# x n! uint32: 20.6 MB at n=8 and 372 MB at n=9.  The QPE histograms of
# the 12,346 classes at n=8 take about 1.2 s, so one cap serves both sources.
SURVEY_MAX_VERTICES = 8

CACHE_VERSION = 1


@dataclass(frozen=True)
class SurveyReport:
    n: int
    source: str
    class_count: int
    distinct_quantum: int
    distinct_spectra: int
    collisions: tuple[tuple[str, str], ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "classes": self.class_count,
            "distinct_quantum": self.distinct_quantum,
            "distinct_spectra": self.distinct_spectra,
            "collisions": [list(pair) for pair in self.collisions],
        }


def enumerate_classes(n: int) -> tuple[Graph, ...]:
    """One representative of every isomorphism class on exactly n
    vertices (n <= 8), sorted by canonical code; each order is built
    from the classes of the order under it.  InputError for n < 1,
    ResourceLimitError for n > 8."""
    if not 1 <= n <= SURVEY_MAX_VERTICES:
        error = InputError if n < 1 else ResourceLimitError
        raise error(
            f"class enumeration supports 1 <= n <= {SURVEY_MAX_VERTICES}, got {n}"
        )
    reps = [Graph(1, (0,))]
    for k in range(2, n + 1):
        reps = [_from_pair_bits(k, c) for c in sorted(_extension_codes(reps))]
    return tuple(reps)


def run_survey(n: int, source: str = "classical") -> SurveyReport:
    """Histogram and spectrum statistics over all classes on n vertices.

    Every pair of representatives sharing a histogram is re-checked to
    be non-isomorphic; a failure indicates an enumeration bug.
    """
    if source not in ("classical", "qpe-exact"):
        raise InputError(f"unknown survey source {source!r}")
    reps = enumerate_classes(n)

    if source == "classical":
        fingerprints = [classical_histogram(g).counts for g in reps]
    else:
        fingerprints = [quantum_histogram(g).histogram.counts for g in reps]
    spectra = [char_poly(g).coeffs for g in reps]

    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, fp in enumerate(fingerprints):
        groups.setdefault(fp, []).append(idx)
    collisions: list[tuple[str, str]] = []
    for members in groups.values():
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if are_isomorphic(reps[a], reps[b]) is not None:
                    raise InternalCheckError(
                        f"representatives {a} and {b} on n={n} are isomorphic"
                    )
                collisions.append((encode_graph6(reps[a]), encode_graph6(reps[b])))
    collisions.sort()
    return SurveyReport(
        n=n,
        source=source,
        class_count=len(reps),
        distinct_quantum=len(set(fingerprints)),
        distinct_spectra=len(set(spectra)),
        collisions=tuple(collisions),
    )


def _report_digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def save_report(reports: Sequence[SurveyReport], path: str) -> None:
    """Append/replace the lines of these reports in a JSON-lines cache file.

    One read, one write and one rename for all of them: each report's
    line replaces any line with the same (n, source, version) key, and
    the new lines follow the kept ones in the order given, so the file
    is the one saving each report alone, in order, would leave.  The new
    file is written beside the old one and then renamed over it, so an
    interrupted save leaves the previous file as it was.
    """
    fresh: dict[tuple, dict] = {}
    for report in reports:
        payload = report.to_json()
        key = (report.n, report.source, CACHE_VERSION)
        fresh.pop(key, None)  # a later report of one key replaces, and moves last
        fresh[key] = {
            "version": CACHE_VERSION,
            "n": report.n,
            "source": report.source,
            "sha256": _report_digest(payload),
            "report": payload,
        }
    # A list, not the dict: a cache line's key may hold unhashable JSON.
    keys = list(fresh)
    kept = [
        e
        for e in _read_cache_lines(path, missing_ok=True)
        if (e.get("n"), e.get("source"), e.get("version")) not in keys
    ]
    kept += fresh.values()
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for e in kept:
                fh.write(json.dumps(e, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_report(path: str, n: int, source: str) -> SurveyReport | None:
    """Fetch a cached report.  Returns None when absent or written by a
    different cache version; raises CacheError on corrupt content."""
    try:
        entries = _read_cache_lines(path, missing_ok=False)
    except FileNotFoundError:
        return None
    for e in entries:
        if e.get("n") != n or e.get("source") != source:
            continue
        if e.get("version") != CACHE_VERSION:
            continue
        payload = e.get("report")
        if not isinstance(payload, dict):
            raise CacheError(f"cache entry for n={n} has no report object")
        if _report_digest(payload) != e.get("sha256"):
            raise CacheError(f"cache checksum mismatch for n={n} source={source}")
        try:
            return SurveyReport(
                n=payload["n"],
                source=source,
                class_count=payload["classes"],
                distinct_quantum=payload["distinct_quantum"],
                distinct_spectra=payload["distinct_spectra"],
                collisions=tuple((a, b) for a, b in payload["collisions"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheError(f"cache entry for n={n} is malformed: {exc}") from None
    return None


def _read_cache_lines(path: str, missing_ok: bool) -> list[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except FileNotFoundError:
        if missing_ok:
            return []
        raise
    except UnicodeDecodeError as exc:
        raise CacheError(f"{path}: not UTF-8 text: {exc}") from None
    entries = []
    for ln, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CacheError(f"{path}:{ln}: not valid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise CacheError(f"{path}:{ln}: expected a JSON object")
        entries.append(obj)
    return entries

