"""Serialization: points, configs, certificates, CSV tables.

Certificates are JSON documents that embed the problem's construction
parameters rather than trusting stored intermediates; ``verify_bracket``
rebuilds the problem, re-checks the stored triples and re-emits the whole
certificate with the same writer, ``bracket_doc``, once the class counts
it states agree.  It compares each stored field with its re-emission by
exact bytes (``marshal``) and makes JSON text only for a field whose bytes
differ.  Point encodings are tagged lists whose tag follows the space
kind; floats survive the JSON round trip exactly (shortest-repr encoding).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import marshal
import math
from typing import Any

from .coverings import UrysohnCovering, UrysohnTriple, certify, default_step
from .problems import MarginProblem, class_count, make_problem, validate_margin
from .spaces import MetricSpace

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
    "csv_text",
    "samples_csv_rows",
    "safe_region_csv_rows",
    "problem_text",
]

def encode_point(space: MetricSpace, p) -> list:
    """Tagged list for a point of ``space``; the tag follows the space kind."""
    if space.kind == "bouquet":
        return ["loop", p.loop, p.s]
    if space.kind == "wedge_spheres":
        return ["sphere", p.sphere, list(p.u)]
    if space.kind == "interval":
        return ["x", p]
    if space.kind == "disjoint_union":
        return ["side", p[0], encode_point((space.left, space.right)[p[0]], p[1])]
    return ["vertex", p]


def decode_point(space: MetricSpace, data):
    """Inverse of ``encode_point`` through the space's ``point`` factory, so
    an off-space point raises ValueError and glue points come back canonical."""
    tag, *fields = data if isinstance(data, list) and data else [None]
    if (space.kind, tag) == ("bouquet", "loop"):
        loop, s = fields
        return space.point(int(loop), float(s))
    if (space.kind, tag) == ("wedge_spheres", "sphere"):
        sphere, u = fields
        return space.point(int(sphere), [float(x) for x in u])
    if (space.kind, tag) == ("interval", "x"):
        (x,) = fields
        return space.point(float(x))
    if (space.kind, tag) == ("graph", "vertex"):
        (v,) = fields
        return space.point(v)
    if (space.kind, tag) == ("disjoint_union", "side"):
        side, inner = fields
        if type(side) is not int or side not in (0, 1):  # True == 1, and 1.0 == 1
            raise ValueError(f"side must be 0 or 1, got {side!r}")
        return space.point(side, decode_point((space.left, space.right)[side], inner))
    raise ValueError(f"not a {space.kind} point: {data!r}")


def family_doc(problem: MarginProblem) -> dict:
    return {
        "family": problem.family.name,
        "params": problem.family.params,
        "sigma": list(problem.family.sigma) if problem.family.sigma else None,
    }


def build_problem(doc: dict) -> MarginProblem:
    """Reconstruct a problem from its family document."""
    return make_problem(doc["family"], doc["params"], doc.get("sigma"))


def covering_doc(space: MetricSpace, cov: UrysohnCovering) -> dict:
    return {
        "d0": cov.d0,
        "h": cov.h,
        "triples": [
            {
                "labels": list(t.labels),
                "support": [encode_point(space, p) for p in t.support],
                "assignment": [[encode_point(space, p), lab] for p, lab in t.assignment.items()],
            }
            for t in cov.triples
        ],
    }


def bracket_doc(problem: MarginProblem, bracket) -> dict:
    """A ``WidthBracket`` with both certificates inline."""
    sep = bracket.separation
    return {
        "kind": "width_bracket",
        "problem": family_doc(problem),
        "d0": bracket.d0,
        "h": bracket.h,
        "lb": {
            "value": bracket.lb,
            # a one-class problem has no pair: null, as JSON has no Infinity
            "delta_star": sep.delta_star if sep.delta_table else None,
            "method": sep.method,
            "delta_table": [[i, j, d] for (i, j), d in sorted(sep.delta_table.items())],
            "components": sep.components,
        },
        "ub": {
            "value": bracket.ub,
            "method": bracket.ub_method,
            "covering": covering_doc(problem.space, bracket.covering),
        },
        "exact": bracket.exact,
    }


# what a document's values can raise while rebuilding or decoding; union
# sides nested a few hundred deep exceed the recursion limit
_BAD_VALUE = (ArithmeticError, LookupError, RecursionError, TypeError, ValueError)


def verify_bracket(doc: dict) -> tuple[bool, list[str]]:
    """Independent re-check of a stored certificate; reports, never raises.

    First reads K from ``lb.components``, which must partition range(K),
    and refuses unless ``lb.delta_table`` has C(K, 2) rows and the family
    parameters name K classes, so the rebuild costs no more than the
    document holds.  Then rebuilds the problem (its margin must be
    strict), re-checks the stored triples at the stored D0 and the
    space's own connectivity step, requires each triple to carry the
    problem's label tuple and to assign every support point one of its
    labels, requires lb <= ub, then re-emits the certificate with
    ``bracket_doc``.  The document supplies only D0, the
    triples and ``ub.method``; every stored field whose ``sort_keys`` JSON
    text differs from its re-emitted value's is reported by name (one
    level down in ``lb`` and ``ub``).  Text is made only for a field that
    ``_same`` cannot match by bytes, and an assignment that repeats its
    triple's support, in order, reuses the support's decoded points.
    """
    if not isinstance(doc, dict) or doc.get("kind") != "width_bracket":
        return False, ["not a width_bracket certificate"]
    try:
        sizes = _size_messages(doc)
        if sizes:
            return False, sizes
        problem = build_problem(doc["problem"])
    except _BAD_VALUE as exc:
        return False, [f"cannot rebuild problem: {exc}"]
    margin = validate_margin(problem)
    if not margin.strict_pass:
        return False, [f"margin invalid: min class distance {margin.min_pair} "
                       f"<= gamma = {problem.gamma}"]
    try:
        d0, method, space = doc["d0"], doc["ub"]["method"], problem.space
        # float() rejects an int beyond the float range, the comparison an int
        # that float() rounds; isfinite rejects NaN and the infinities
        if (isinstance(d0, bool) or not isinstance(d0, (int, float))
                or float(d0) != d0 or not math.isfinite(d0)):
            raise ValueError(f"d0 must be a finite number, got {d0!r}")
        if method not in ("canonical", "exact-dp", "greedy"):
            raise ValueError(f"unknown ub.method {method!r}")
        triples = []
        for td in doc["ub"]["covering"]["triples"]:  # labels must be integers
            support = [decode_point(space, d) for d in td["support"]]
            pairs = td["assignment"]
            if (type(pairs) is list and len(pairs) == len(support)
                    and all(type(pair) is list and len(pair) == 2 for pair in pairs)
                    and _same([d for d, _ in pairs], td["support"])):
                assignment = {p: int(lab) for p, (_, lab) in zip(support, pairs)}
            else:
                assignment = {decode_point(space, d): int(lab) for d, lab in pairs}
            triples.append(UrysohnTriple(support, tuple(int(v) for v in td["labels"]), assignment))
    except _BAD_VALUE as exc:
        return False, [f"malformed certificate: {type(exc).__name__}: {exc}"]
    bracket = certify(problem, d0, UrysohnCovering(triples, d0, default_step(space)), method)
    report = bracket.report
    checks = {"a support is not chain-connected": report.connectivity_ok,
              "a support exceeds D0": report.diameters_ok,
              f"{len(report.uncovered)} safe points uncovered": report.coverage_ok,
              f"{len(report.violations)} label violations": report.correctness_ok}
    messages = [f"covering re-check failed: {why}" for why, ok in checks.items() if not ok]
    messages += _triple_messages(triples, tuple(problem.labels))
    # the TOL slack on diameters keeps this from following from the re-check
    if bracket.lb > bracket.ub:
        messages.append(f"lower bound {bracket.lb} exceeds the covering size {bracket.ub}")
    stored, fresh = _fields(doc), _fields(bracket_doc(problem, bracket))
    for key in dict.fromkeys([*fresh, *stored]):
        if key in stored and key in fresh and _same(stored[key], fresh[key]):
            continue
        texts = [_field_text(side[key]) if key in side else "nothing" for side in (stored, fresh)]
        if texts[0] != texts[1]:
            messages.append(_mismatch(".".join(map(str, key)), *texts))
    return not messages, messages


def _mismatch(name: str, stored: str, fresh: str) -> str:
    """Both texts cut to 60 characters; when their first 60 agree, both
    windows start 20 characters before the first that differs."""
    start, where = 0, ""
    if stored[:60] == fresh[:60]:
        at = next((i for i, (a, b) in enumerate(zip(stored, fresh)) if a != b),
                  min(len(stored), len(fresh)))
        start, where = max(at - 20, 0), f" (first difference at character {at})"
    return (f"{name}: stored {stored[start:start + 60]}, "
            f"re-derived {fresh[start:start + 60]}{where}")


def _triple_messages(triples: list[UrysohnTriple], labels: tuple) -> list[str]:
    """What the covering re-check leaves open in each triple: its label set
    must be the problem's, and its assignment must give every support point,
    unsafe ones too, one of those labels."""
    messages = []
    for i, t in enumerate(triples):
        name = f"ub.covering.triples[{i}]"
        if t.labels != labels:
            messages.append(f"{name}.labels: {list(t.labels)[:10]} is not the problem's "
                            f"label tuple {list(labels)[:10]}")
        missing = sum(x not in t.assignment for x in t.support)
        if missing:
            messages.append(f"{name}.assignment: {missing} support points unassigned")
        foreign = sorted(set(t.assignment.values()).difference(labels))
        if foreign:
            messages.append(f"{name}.assignment: labels {foreign[:10]} are not in the "
                            f"problem's label tuple")
    return messages


def _size_messages(doc: dict) -> list[str]:
    """What disagrees among the certificate's class counts, read before any
    problem is built; raises what ``build_problem`` would on a family
    document it cannot read."""
    lb = doc.get("lb") if isinstance(doc.get("lb"), dict) else {}
    comps, table = lb.get("components"), lb.get("delta_table")
    flat = ([j for c in comps for j in c] if isinstance(comps, list)
            and all(isinstance(c, list) and c for c in comps) else [None])
    if not all(type(j) is int for j in flat) or sorted(flat) != list(range(len(flat))):
        return ["lb.components: not a partition of range(K)"]
    k, messages = len(flat), []
    if not isinstance(table, list) or len(table) != k * (k - 1) // 2:
        rows = len(table) if isinstance(table, list) else "no"
        messages.append(f"lb.delta_table: {rows} rows, but K = {k} classes have "
                        f"{k * (k - 1) // 2} pairs")
    named = class_count(doc["problem"]["family"], doc["problem"]["params"])
    if named != k:
        messages.append(f"lb.components: K = {k} classes, but the family parameters "
                        f"name {named}")
    return messages


# ``json.dumps(v, sort_keys=True)`` made once; a cycle raises RecursionError
_FIELD_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def _fields(doc: dict) -> dict:
    """Each top-level field, one level down in lb and ub."""
    fields = {}
    for key, value in doc.items():
        if key in ("lb", "ub") and isinstance(value, dict):
            fields.update(((key, k), v) for k, v in value.items())
        else:
            fields[(key,)] = value
    return fields


def _same(stored, fresh) -> bool:
    """True only when both values must have the same ``sort_keys`` JSON text.

    Dicts match key by key, whatever their key order, when every key is an
    exact ``str``; equal-length lists of dicts (the triples) match item by
    item; anything else matches when its ``marshal`` format 2 bytes are
    equal.  That format writes an exact type code for each value (bool,
    int, a float's 8 IEEE bytes, UTF-8 str, list, tuple, dict in insertion
    order) and no back-references, so equal bytes mean equal values of
    equal exact types.  Bytes-like objects (bytes, numpy scalars) marshal
    as byte strings, which ``bracket_doc`` never emits, so no stored value
    with one matches.  A value marshal refuses, or one nested too deep, is
    not known to be the same.
    """
    try:
        if type(stored) is dict and type(fresh) is dict:
            return (stored.keys() == fresh.keys()
                    and all(type(k) is str for k in stored)
                    and all(type(k) is str for k in fresh)
                    and all(_same(v, fresh[k]) for k, v in stored.items()))
        if (type(stored) is list and type(fresh) is list and len(stored) == len(fresh)
                and fresh and type(fresh[0]) is dict):
            return all(map(_same, stored, fresh))
        return marshal.dumps(stored, 2) == marshal.dumps(fresh, 2)
    except (RecursionError, ValueError):
        return False


def _field_text(value) -> str:
    """Canonical JSON text of a field; a value with no JSON text gets a note
    naming why, which no re-emitted field equals."""
    try:
        return _FIELD_ENCODER.encode(value)
    except (RecursionError, TypeError, ValueError) as exc:
        return f"not JSON ({type(exc).__name__})"


# -- structured key/value config text ---------------------------------------


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; '#' outside a JSON string starts a comment.

    A value is the JSON fragment it starts with when only blanks or a
    comment follow, else the text before the first '#' as a bare string."""
    out: dict[str, Any] = {}
    set_on: dict[str, int] = {}  # key -> its line
    for lineno, raw in enumerate(text.splitlines(), 1):
        head = raw.split("#", 1)[0]
        if not head.strip():
            continue
        if "=" not in head:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in raw.split("=", 1))
        if key in set_on:
            raise ValueError(f"line {lineno}: key {key!r} is already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            obj, end = json.JSONDecoder().raw_decode(value)
        except json.JSONDecodeError:
            end = None
        if end is None or value[end:].lstrip()[:1] not in ("", "#"):
            obj = value.split("#", 1)[0].strip()
        out[key] = obj
    return out


def format_config(d: dict) -> str:
    lines = [f"{k} = {json.dumps(v)}" for k, v in d.items()]
    return "\n".join(lines) + "\n"


def config_hash(d: dict) -> str:
    return hashlib.sha256(
        json.dumps(d, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# -- CSV ---------------------------------------------------------------------


def csv_text(header, rows) -> str:
    """CSV text (``\r\n`` line ends); write it to a file opened with ``newline=""``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def samples_csv_rows(space: MetricSpace):
    for i, p in enumerate(space.sample_set):
        yield [i, json.dumps(encode_point(space, p))]


def safe_region_csv_rows(problem: MarginProblem):
    for j in range(problem.k):
        lab = problem.regions[j].label
        for p in problem.safe_points(j):
            yield [json.dumps(encode_point(problem.space, p)), lab]


def problem_text(problem: MarginProblem) -> str:
    """Structured text for a problem: family tag, parameters, permutation."""
    doc = {"family": problem.family.name}
    doc.update(problem.family.params)
    if problem.family.sigma:
        doc["sigma"] = list(problem.family.sigma)
    return format_config(doc)


def covering_text(space: MetricSpace, cov: UrysohnCovering) -> str:
    """Structured text for a covering: one block per triple, point ids and
    labels, plus the locality scale and connectivity step."""
    lines = [f"d0 = {cov.d0}", f"h = {cov.h}", f"triples = {cov.size}"]
    for i, tri in enumerate(cov.triples):
        lines.append(f"[triple {i}]")
        lines.append(f"labels = {json.dumps(list(tri.labels))}")
        for p in tri.support:
            lines.append(
                f"point {json.dumps(encode_point(space, p))} -> {tri.assignment[p]}"
            )
    return "\n".join(lines) + "\n"

