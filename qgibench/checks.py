"""Check one op's output against the oracle's reference answer.

Pure text and value checks: no qgi, no numpy. `check` returns None when
the output is right and a one-line reason when it is not. `corrupt`
falsifies a reference so that a run can show `check` catches it.
"""

from __future__ import annotations

import copy
import math
import re

_QPE_LINE = re.compile(
    r"qpe: width=(\d+) graph_qubits=(\d+) est_qubits=(\d+) oracle_applications=(\d+)"
)
_YES_NO = {"yes": True, "no": False, "not checked": None}


def _table_counts(stdout: str, header: str) -> list[int]:
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}, got {lines[:1]}")
    counts = []
    for k, line in enumerate(lines[1:]):
        edges, _prob, count = line.split()
        if int(edges) != k:
            raise ValueError(f"row {k} is labelled {edges}")
        counts.append(int(count))
    return counts


def _check_invariant(op: dict, out: dict, ref: dict) -> str | None:
    mode = op["mode"]
    if mode != "classical":
        found = _QPE_LINE.search(out["stderr"])
        want = (ref["width"], ref["n"], ref["t"], ref["oracle_calls"])
        if not found or tuple(int(x) for x in found.groups()) != want:
            return f"qpe plan line {found and found.group(0)!r}, expected {want}"
    if mode != "shots":
        counts = _table_counts(out["stdout"], "#(edges)  %Probability  #(subgraphs)")
        return None if counts == ref["counts"] else f"counts {counts} != {ref['counts']}"
    counts = _table_counts(out["stdout"], "#(edges)  %Probability  #(shots)")
    shots = op["shots"]
    if len(counts) != len(ref["counts"]) or sum(counts) != shots:
        return f"{len(counts)} outcomes summing to {sum(counts)}, expected " \
               f"{len(ref['counts'])} summing to {shots}"
    total = sum(ref["counts"])
    for k, (got, exact) in enumerate(zip(counts, ref["counts"])):
        if exact == 0:
            if got:
                return f"outcome {k}: {got} shots where the exact count is 0"
            continue
        p = exact / total
        # Six standard deviations: a correct sampler fails this about
        # once in 10^9 outcomes.
        if abs(got - shots * p) > 6 * math.sqrt(shots * p * (1 - p)) + 1:
            return f"outcome {k}: {got} shots, expected about {shots * p:.1f}"
    return None


def _verdict(inv, iso) -> str:
    if not inv:
        return "distinguished by invariant"
    if iso is None:
        return "invariant-equal, isomorphism not checked (n > 10)"
    if iso:
        return "invariant-equal, isomorphic"
    return "invariant-equal, NOT isomorphic (counterexample)"


def _check_compare(op: dict, out: dict, ref: dict) -> str | None:
    fields = dict(line.split(": ", 1) for line in out["stdout"].splitlines())
    got = {
        "invariant_equal": _YES_NO.get(fields.get("invariant equal"), "?"),
        "spectra_equal": _YES_NO.get(fields.get("spectra equal"), "?"),
        "isomorphic": _YES_NO.get(fields.get("isomorphic"), "?"),
    }
    if got != ref:
        return f"compare said {got}, expected {ref}"
    verdict = _verdict(ref["invariant_equal"], ref["isomorphic"])
    if fields.get("verdict") != verdict:
        return f"verdict {fields.get('verdict')!r}, expected {verdict!r}"
    if ref["isomorphic"]:
        perm = [int(v) - 1 for v in fields.get("witness", "").split()]
        (n, e1), (_, e2) = op["graphs"]
        mapped = {tuple(sorted((perm[i], perm[j]))) for i, j in e1} if len(perm) == n else None
        if mapped != {tuple(e) for e in e2}:
            return f"witness {fields.get('witness')!r} is not an isomorphism"
    return None


def _check_encode(op: dict, out: dict, ref: dict) -> str | None:
    text = out["stdout"]
    got = {
        "g": int(re.search(r"^qubit\[(\d+)\] g;$", text, re.M).group(1)),
        "e": int(re.search(r"^qubit\[(\d+)\] e;$", text, re.M).group(1)),
        "h": len(re.findall(r"^h ", text, re.M)),
        "ccp": len(re.findall(r"^ctrl @ cp\(", text, re.M)),
        "cp": len(re.findall(r"^cp\(", text, re.M)),
        "swap": len(re.findall(r"^swap ", text, re.M)),
        "measure": len(re.findall(r"^meas\[\d+\] = measure ", text, re.M)),
    }
    return None if got == ref else f"circuit {got}, expected {ref}"


def _check_survey(op: dict, out: dict, ref: dict) -> str | None:
    lines = [[int(x) for x in line.replace(":", "").split()] for line in out["stdout"].splitlines()]
    return None if lines == ref["lines"] else f"census {lines} != {ref['lines']}"


def check(op: dict, out: dict, ref) -> str | None:
    """None if `out` (what the op produced) matches the reference."""
    if out.get("error"):
        return out["error"]
    cmd = op["cmd"]
    if cmd in ("mis", "prop1"):
        return None if out["value"] == ref else f"{out['value']!r} != {ref!r}"
    if out["rc"] != 0:
        return f"exit code {out['rc']}: {out['stderr'].strip()[-200:]}"
    try:
        return {
            "invariant": _check_invariant,
            "compare": _check_compare,
            "encode": _check_encode,
            "survey": _check_survey,
        }[cmd](op, out, ref)
    except (ValueError, AttributeError, IndexError, KeyError) as exc:
        return f"unreadable output: {exc!r}"


def corrupt(op: dict, ref):
    """A falsified copy of a reference that `check` must reject."""
    bad = copy.deepcopy(ref)
    cmd = op["cmd"]
    if cmd == "invariant":
        counts = bad["counts"]
        if op["mode"] == "shots":
            # Move all mass off the likeliest outcome: it was sampled, so
            # the shot counts cannot match.
            top = counts.index(max(counts))
            counts[(top + 1) % len(counts)] += counts[top]
            counts[top] = 0
        else:
            counts[0] += 1
            counts[-1] -= 1
    elif cmd == "compare":
        bad["invariant_equal"] = not bad["invariant_equal"]
    elif cmd == "encode":
        bad["ccp"] += 1
    elif cmd == "survey":
        bad["lines"][-1][2] -= 1
    elif cmd == "mis":
        bad[0] += 1
    elif cmd == "prop1":
        bad = not bad
    return bad
