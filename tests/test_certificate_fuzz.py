"""Differential fuzz of ``verify_bracket`` and the edges of its byte compare.

``reference_verify_bracket`` below is the re-check as it stood before
stored fields were compared by ``marshal`` bytes: it makes the
``sort_keys`` JSON text of every stored and re-emitted field and compares
the texts, and it decodes each assignment point on its own.  The fuzz
mutates honest certificates of every family and requires the same verdict
and the same message heads from both.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urwidth.coverings import UrysohnCovering, UrysohnTriple, certify, default_step, width_bracket
from urwidth.problems import (
    bouquet_problem,
    interval_union_problem,
    permuted_problem,
    scaled_problem,
    union_problem,
    validate_margin,
    wedge_problem,
)
from urwidth.serialize import (
    _BAD_VALUE,
    _FIELD_ENCODER,
    _same,
    _size_messages,
    _triple_messages,
    bracket_doc,
    build_problem,
    decode_point,
    verify_bracket,
)

_FAMILIES = {
    "bouquet": lambda: (bouquet_problem(3, 10.0, 1.0, 0.5), 4.0),
    "one-class": lambda: (bouquet_problem(1, 10.0, 1.0, 0.5), 4.0),
    "interval": lambda: (interval_union_problem([(0.2, 0.4)], 0.05, 21), 1.0),
    "scaled": lambda: (scaled_problem(2, 2, 40.0, 1.0, 0.5), 4.0),
    "wedge": lambda: (wedge_problem(2, 2, 2.0, 0.5, n=16, seed=1), 1.0),
    "union": lambda: (union_problem(bouquet_problem(2, 10.0, 1.0, 0.5),
                                    bouquet_problem(1, 10.0, 1.0, 0.5), 100.0), 4.0),
    "permuted": lambda: (permuted_problem(bouquet_problem(2, 10.0, 1.0, 0.5), (2, 1)), 4.0),
}


def _doc(name: str) -> dict:
    problem, d0 = _FAMILIES[name]()
    return bracket_doc(problem, width_bracket(problem, d0))


# written in insertion order, as ``json.dumps`` of ``bracket_doc`` leaves them
_HONEST = {name: json.loads(json.dumps(_doc(name))) for name in _FAMILIES}


# -- the reference: the text-comparing re-check, kept verbatim ---------------


def reference_verify_bracket(doc: dict) -> tuple[bool, list[str]]:
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
            assignment = {decode_point(space, d): int(lab) for d, lab in td["assignment"]}
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
        if stored.get(key) != fresh.get(key):
            messages.append(f"{'.'.join(key)}: stored {stored.get(key, 'nothing')[:60]}, "
                            f"re-derived {fresh.get(key, 'nothing')[:60]}")
    return not messages, messages


def _fields(doc: dict) -> dict:
    fields = {}
    for key, value in doc.items():
        if key in ("lb", "ub") and isinstance(value, dict):
            fields.update(((key, k), v) for k, v in value.items())
        else:
            fields[(key,)] = value
    return {k: _field_text(v) for k, v in fields.items()}


def _field_text(value) -> str:
    try:
        return _FIELD_ENCODER.encode(value)
    except (RecursionError, TypeError, ValueError) as exc:
        return f"not JSON ({type(exc).__name__})"


# -- the differential fuzz ---------------------------------------------------

_PALETTE = [0, 1, -1, 2, 2**31 - 1, 2**53 + 1, -2**63, 2**64, True, False,
            0.0, -0.0, 1e308, -1e308, 1e-320, math.nan, math.inf, -math.inf,
            "", "x", "loop", [], {}]


def _leaf_paths(data, path=()):
    """The path of every value in ``data`` that is neither a dict nor a list."""
    if isinstance(data, dict):
        for key, value in data.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(data, list):
        for i, value in enumerate(data):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


_LEAVES = {name: list(_leaf_paths(doc)) for name, doc in _HONEST.items()}


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _heads(messages: list[str]) -> list[str]:
    return [m.split(": ", 1)[0] for m in messages]


@st.composite
def _mutated(draw):
    name = draw(st.sampled_from(sorted(_HONEST)))
    doc = copy.deepcopy(_HONEST[name])
    leaves = st.sampled_from(_LEAVES[name])
    if draw(st.booleans()):
        path = draw(leaves)
        del _parent(doc, path)[path[-1]]
    else:
        for path, value in draw(st.lists(st.tuples(leaves, st.sampled_from(_PALETTE)),
                                         min_size=1, max_size=3)):
            _parent(doc, path)[path[-1]] = copy.copy(value)
    if draw(st.booleans()):
        doc = json.loads(json.dumps(doc, sort_keys=True))
    return doc


@settings(max_examples=300, deadline=None)
@given(_mutated())
def test_verify_bracket_agrees_with_the_text_compare(doc):
    result = verify_bracket(doc)
    assert type(result) is tuple and len(result) == 2
    ok, messages = result
    assert type(ok) is bool and type(messages) is list
    assert all(type(m) is str for m in messages)
    ref_ok, ref_messages = reference_verify_bracket(doc)
    assert ok == ref_ok
    assert _heads(messages) == _heads(ref_messages)


@pytest.mark.parametrize("name", sorted(_HONEST))
def test_honest_certificates_verify_in_both_key_orders(name):
    doc = _HONEST[name]
    assert verify_bracket(doc) == reference_verify_bracket(doc) == (True, [])
    resorted = json.loads(json.dumps(doc, sort_keys=True))
    assert verify_bracket(resorted) == (True, [])


# -- the byte compare's edges ------------------------------------------------


class _Str(str):
    pass


_DIFFERENT = [
    (1, 1.0), (1, True), (1.0, True), (0, False),
    (0.0, -0.0), ([0.0], [-0.0]),
    ({"1": 2}, {1: 2}), ({"1": 2}, {True: 2}), ({1: 2}, {True: 2}),
    (_Str("loop"), "loop"), ({_Str("a"): 1}, {"a": 1}),
    (np.float64(1.0), 1.0), (np.int64(1), 1),
]


@pytest.mark.parametrize("a, b", _DIFFERENT, ids=repr)
def test_same_never_matches_values_of_other_types(a, b):
    assert not _same(a, b) and not _same(b, a)


def test_same_matches_dicts_in_any_key_order():
    fresh = {"labels": [1, 2], "support": [["loop", 1, 5.0]], "assignment": [[["loop", 1, 5.0], 1]]}
    stored = json.loads(json.dumps(fresh, sort_keys=True))
    assert list(stored) != list(fresh)
    assert _same(stored, fresh)
    assert _same([stored, stored], [fresh, fresh])
    assert not _same({**stored, "labels": [1, 2.0]}, fresh)


def test_same_leaves_lists_against_tuples_and_deep_nests_to_the_text():
    assert not _same([1, 2.5], (1, 2.5))
    assert _field_text([1, 2.5]) == _field_text((1, 2.5))
    deep = []
    for _ in range(3000):
        deep = [deep]
    assert not _same(deep, deep)


def _exact_json_types(data) -> bool:
    if type(data) is dict:
        return all(type(k) is str and _exact_json_types(v) for k, v in data.items())
    if type(data) is list:
        return all(_exact_json_types(v) for v in data)
    return type(data) in (str, int, float, bool, type(None))


@pytest.mark.parametrize("name", sorted(_FAMILIES))
def test_bracket_doc_emits_only_exact_json_types(name):
    # the byte compare is sound only while the writer emits no bytes-like value
    assert _exact_json_types(_doc(name))
