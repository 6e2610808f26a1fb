"""Serialization: points, configs, certificates, CSV tables.

Certificates are JSON documents that embed the problem's construction
parameters rather than trusting stored intermediates; ``verify_bracket``
rebuilds the problem from those parameters, recomputes the separation
bound from scratch, and re-runs covering verification on the stored
triples.  Point encodings are tagged lists; floats survive the JSON
round trip exactly (shortest-repr encoding).
"""

from __future__ import annotations

import csv
import hashlib
import json
from typing import Any

from .coverings import (
    UrysohnCovering,
    UrysohnTriple,
    WidthBracket,
    separation_certificate,
    verify_covering,
)
from .problems import MarginProblem, make_problem
from .spaces import BouquetPoint, MetricSpace, SpherePoint

__all__ = [
    "encode_point",
    "decode_point",
    "family_doc",
    "build_problem",
    "bracket_doc",
    "covering_doc",
    "covering_text",
    "verify_bracket",
    "parse_config_text",
    "format_config",
    "config_hash",
    "write_csv",
    "samples_csv_rows",
    "safe_region_csv_rows",
    "problem_text",
    "table_to_csv",
    "table_from_csv",
]


def encode_point(p) -> list:
    if isinstance(p, BouquetPoint):
        return ["loop", p.loop, p.s]
    if isinstance(p, SpherePoint):
        return ["sphere", p.sphere, list(p.u)]
    if isinstance(p, float):
        return ["x", p]
    if isinstance(p, tuple) and len(p) == 2 and p[0] in (0, 1):
        return ["side", p[0], encode_point(p[1])]
    return ["vertex", p]


def decode_point(space: MetricSpace, data):
    tag = data[0]
    if tag == "loop":
        return BouquetPoint(int(data[1]), float(data[2]))
    if tag == "sphere":
        return SpherePoint(int(data[1]), tuple(float(x) for x in data[2]))
    if tag == "x":
        return float(data[1])
    if tag == "side":
        comp = (space.left, space.right)[data[1]]
        return (data[1], decode_point(comp, data[2]))
    if tag == "vertex":
        return data[1]
    raise ValueError(f"unknown point tag {tag!r}")


def family_doc(problem: MarginProblem) -> dict:
    return {
        "family": problem.family.name,
        "params": problem.family.params,
        "sigma": list(problem.family.sigma) if problem.family.sigma else None,
    }


def build_problem(doc: dict) -> MarginProblem:
    """Reconstruct a problem from its family document."""
    return make_problem(doc["family"], doc["params"], doc.get("sigma"))


def covering_doc(cov: UrysohnCovering) -> dict:
    return {
        "d0": cov.d0,
        "h": cov.h,
        "triples": [
            {
                "labels": list(t.labels),
                "support": [encode_point(p) for p in t.support],
                "assignment": [[encode_point(p), lab] for p, lab in t.assignment.items()],
            }
            for t in cov.triples
        ],
    }


def decode_covering(space: MetricSpace, doc: dict) -> UrysohnCovering:
    triples = []
    for td in doc["triples"]:
        support = [decode_point(space, d) for d in td["support"]]
        assignment = {decode_point(space, d): lab for d, lab in td["assignment"]}
        triples.append(UrysohnTriple(support, tuple(td["labels"]), assignment))
    return UrysohnCovering(triples, doc["d0"], doc["h"])


def bracket_doc(problem: MarginProblem, bracket: WidthBracket) -> dict:
    """Width bracket with both certificates inline."""
    sep = bracket.separation
    return {
        "kind": "width_bracket",
        "problem": family_doc(problem),
        "d0": bracket.d0,
        "h": bracket.h,
        "lb": {
            "value": bracket.lb,
            "delta_star": sep.delta_star,
            "method": sep.method,
            "delta_table": [[i, j, d] for (i, j), d in sorted(sep.delta_table.items())],
            "components": sep.components,
        },
        "ub": {
            "value": bracket.ub,
            "method": bracket.ub_method,
            "covering": covering_doc(bracket.covering),
        },
        "exact": bracket.exact,
    }


def verify_bracket(doc: dict) -> tuple[bool, list[str]]:
    """Independent re-check of a stored certificate.

    Rebuilds the problem, recomputes the separation bound and re-runs
    covering verification; any mismatch with the stored values is
    reported by name.
    """
    messages = []
    if doc.get("kind") != "width_bracket":
        return False, ["not a width_bracket certificate"]
    try:
        problem = build_problem(doc["problem"])
    except (KeyError, TypeError, ValueError) as exc:
        return False, [f"cannot rebuild problem: {exc}"]
    sep = separation_certificate(problem, doc["d0"])
    if sep.lb != doc["lb"]["value"]:
        messages.append(
            f"lower bound mismatch: recomputed {sep.lb}, stored {doc['lb']['value']}"
        )
    stored_delta = doc["lb"]["delta_star"]
    same_delta = (
        sep.delta_star == stored_delta  # covers the infinite single-class case
        or abs(sep.delta_star - stored_delta) <= 1e-9
    )
    if not same_delta:
        messages.append(
            f"delta* mismatch: recomputed {sep.delta_star}, stored {stored_delta}"
        )
    cov = decode_covering(problem.space, doc["ub"]["covering"])
    if cov.size != doc["ub"]["value"]:
        messages.append(
            f"covering size {cov.size} does not match stored ub {doc['ub']['value']}"
        )
    report = verify_covering(problem, cov)
    if not report.connectivity_ok:
        messages.append("covering re-check failed: a support is not chain-connected")
    if not report.diameters_ok:
        messages.append("covering re-check failed: a support exceeds D0")
    if report.uncovered:
        messages.append(
            f"covering re-check failed: {len(report.uncovered)} safe points uncovered"
        )
    if report.violations:
        messages.append(
            f"covering re-check failed: {len(report.violations)} label violations"
        )
    stored_exact = bool(doc.get("exact"))
    if stored_exact != (doc["lb"]["value"] == doc["ub"]["value"]):
        messages.append("exact flag inconsistent with stored endpoints")
    return not messages, messages


# -- structured key/value config text ---------------------------------------


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; values are JSON fragments when they
    parse, bare strings otherwise.  '#' starts a comment."""
    out: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def format_config(d: dict) -> str:
    lines = [f"{k} = {json.dumps(v)}" for k, v in d.items()]
    return "\n".join(lines) + "\n"


def config_hash(d: dict) -> str:
    return hashlib.sha256(
        json.dumps(d, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# -- CSV ---------------------------------------------------------------------


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def samples_csv_rows(space: MetricSpace):
    for i, p in enumerate(space.sample_set):
        yield [i, json.dumps(encode_point(p))]


def safe_region_csv_rows(problem: MarginProblem):
    for j in range(problem.k):
        lab = problem.regions[j].label
        for p in problem.safe_points(j):
            yield [json.dumps(encode_point(p)), lab]


def problem_text(problem: MarginProblem) -> str:
    """Structured text for a problem: family tag, parameters, permutation."""
    doc = {"family": problem.family.name}
    doc.update(problem.family.params)
    if problem.family.sigma:
        doc["sigma"] = list(problem.family.sigma)
    return format_config(doc)


def covering_text(cov: UrysohnCovering) -> str:
    """Structured text for a covering: one block per triple, point ids and
    labels, plus the locality scale and connectivity step."""
    lines = [f"d0 = {cov.d0}", f"h = {cov.h}", f"triples = {cov.size}"]
    for i, tri in enumerate(cov.triples):
        lines.append(f"[triple {i}]")
        lines.append(f"labels = {json.dumps(list(tri.labels))}")
        for p in tri.support:
            lines.append(
                f"point {json.dumps(encode_point(p))} -> {tri.assignment[p]}"
            )
    return "\n".join(lines) + "\n"


def table_to_csv(path, table) -> None:
    """Hypothesis table as CSV: header of ground points, one row per vector."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([json.dumps(g) for g in table.ground])
        writer.writerows(table.hypotheses)


def table_from_csv(path):
    from .vc import HypothesisTable

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    ground = [json.loads(g) for g in rows[0]]
    hyps = [tuple(int(v) for v in row) for row in rows[1:]]
    return HypothesisTable(ground, hyps)
