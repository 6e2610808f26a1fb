"""Blocked support checks and the safe-label lookup against scalar oracles.

``support_check``, the one check of a support's chain connectivity and
diameter, reads blocks of ``dists`` in place of pairwise loops over the
scalar ``dist``, and ``MarginProblem.safe_labels`` answers sample points
from the cached safe sets and every other point from one ``class_gaps``
call.  The oracles below are the scalar loops, with the analytic piece
distances written out: every answer must agree with them exactly, not
approximately.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urwidth.coverings import canonical_covering, verify_covering
from urwidth.problems import (
    TOL,
    BallPiece,
    ClassRegion,
    FamilyTag,
    LiftedPiece,
    MarginProblem,
    SegmentPiece,
    bouquet_problem,
    interval_union_problem,
    permuted_problem,
    scaled_problem,
    union_problem,
    wedge_problem,
)
from urwidth.spaces import (
    BLOCK,
    bouquet_space,
    interval_space,
    support_check,
)


def _diameter_oracle(space, pts):
    best = 0.0
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            d = space.dist(p, q)
            if d > best:
                best = d
    return best


def _connected_oracle(space, pts, h):
    n = len(pts)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        i = stack.pop()
        for j in range(n):
            if not seen[j] and space.dist(pts[i], pts[j]) <= h:
                seen[j] = True
                count += 1
                stack.append(j)
    return count == n


def _piece_dist_oracle(space, piece, x):
    if isinstance(piece, LiftedPiece):
        side, inner = x
        comp = (space.left, space.right)[piece.side]
        if side == piece.side:
            return _piece_dist_oracle(comp, piece.piece, inner)
        own = (space.left, space.right)[side]
        bridge = space.s + own.dist(inner, space.anchors[side])
        return bridge + _piece_dist_oracle(comp, piece.piece, space.anchors[piece.side])
    if isinstance(piece, BallPiece):
        return max(0.0, space.dist(piece.center, x) - piece.radius)
    return max(piece.lo - x, x - piece.hi, 0.0)


def _safe_label_oracle(problem, x):
    for r in problem.regions:
        if min(_piece_dist_oracle(problem.space, pc, x) for pc in r.pieces) <= problem.gamma / 2 + TOL:
            return r.label
    return None


def _mixed_union():
    iv = interval_union_problem([(0.1, 0.3), (0.6, 0.7)], 0.1, 51)
    return union_problem(bouquet_problem(2, 10.0, 0.1, 0.5), iv, 50.0)


_PROBLEMS = {
    "bouquet": bouquet_problem(3, 10.0, 1.0, 0.5),
    "scaled": scaled_problem(2, 2, 16.0, 1.0, 1.0),
    "wedge_k1": wedge_problem(2, 1, 2.0, 1.0, n=24, seed=1),
    "wedge_k2": wedge_problem(3, 2, 2.0, 1.0, n=24, seed=2),
    "wedge_k3": wedge_problem(2, 3, 2.0, 1.0, n=24, seed=3),
    "interval": interval_union_problem([(0.1, 0.3), (0.6, 0.7)], 0.05, 41),
    "union": union_problem(bouquet_problem(2, 10.0, 1.0, 0.5),
                           bouquet_problem(1, 10.0, 1.0, 0.5), 30.0),
    "union_mixed": _mixed_union(),
    "permuted": permuted_problem(bouquet_problem(3, 10.0, 1.0, 0.5), (2, 3, 1)),
}


def _off_sample(space):
    """Points that are not sample points (almost surely), by space kind."""
    if space.kind == "bouquet":
        return st.builds(space.point, st.integers(1, space.w),
                         st.floats(0.0, space.L, exclude_max=True))
    if space.kind == "interval":
        return st.floats(0.0, 1.0)
    if space.kind == "disjoint_union":
        return st.one_of(st.tuples(st.just(0), _off_sample(space.left)),
                         st.tuples(st.just(1), _off_sample(space.right)))

    def fresh(sphere, raw):
        nrm = math.hypot(*raw)
        return space.point(sphere, [x / nrm for x in raw])

    raw = st.lists(st.floats(-1.0, 1.0), min_size=space.k + 1, max_size=space.k + 1)
    return st.builds(fresh, st.integers(1, space.w),
                     raw.filter(lambda v: math.hypot(*v) > 0.1))


def _points(problem):
    """Sample points (safe or unsafe filler), safe points (appended
    representatives included) and off-sample points."""
    space = problem.space
    safe = [x for j in range(problem.k) for x in problem.safe_points(j)]
    return st.one_of(st.sampled_from(space.sample_set), st.sampled_from(safe),
                     _off_sample(space))


def _case(name):
    problem = _PROBLEMS[name]
    res = problem.space.resolution
    steps = st.one_of(st.sampled_from([res, 2 * res, 5 * res]), st.floats(1e-6, 20.0))
    support = st.lists(_points(problem), min_size=1, max_size=12)
    # a duplicated point must not change either answer
    support = st.one_of(support, support.map(lambda pts: pts + pts[:2]))
    return st.tuples(st.just(name), support, steps)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_PROBLEMS)).flatmap(_case))
@example(("bouquet", [_PROBLEMS["bouquet"].space.wedge_point], 1.0))
def test_support_check_matches_scalar_loops(case):
    name, pts, h = case
    space = _PROBLEMS[name].space
    connected, diameter = support_check(space, pts, h)
    assert (connected, diameter) == (_connected_oracle(space, pts, h),
                                     _diameter_oracle(space, pts))
    assert type(diameter) is float


def _batch(name):
    pts = st.lists(_points(_PROBLEMS[name]), max_size=12)
    # a repeated point must get the same answer every time
    return st.tuples(st.just(name), st.one_of(pts, pts.map(lambda p: p + p[::2])))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_PROBLEMS)).flatmap(_batch))
def test_safe_label_matches_analytic_loop(case):
    name, pts = case
    problem = _PROBLEMS[name]
    want = [_safe_label_oracle(problem, x) for x in pts]
    assert problem.safe_labels(pts) == want
    assert [problem.safe_labels([x])[0] for x in pts] == want


@pytest.mark.parametrize("name", sorted(_PROBLEMS))
def test_safe_label_on_every_sample_point_from_a_fresh_problem(name):
    problem = _PROBLEMS[name]
    fresh = MarginProblem(problem.space, problem.gamma, problem.regions, problem.family)
    pts = list(problem.space.sample_set) + [x for j in range(problem.k)
                                             for x in problem.safe_points(j)]
    assert fresh.safe_labels(pts) == [_safe_label_oracle(problem, x) for x in pts]


def test_support_longer_than_a_block_crosses_block_edges():
    space = interval_space(150)
    pts = list(space.sample_set)
    assert len(pts) > 2 * BLOCK
    step = space.resolution
    for support in (pts, pts[::-1], pts[::2], pts[:BLOCK] + pts[BLOCK + 1 :]):
        for h in (step, 2 * step, 0.5 * step, 1.0):
            got = support_check(space, support, h)
            assert got == (_connected_oracle(space, support, h), _diameter_oracle(space, support))
    # the one gap at a block edge splits the chain at step h, not at 2h
    cut = pts[:BLOCK] + pts[BLOCK + 1 :]
    assert support_check(space, cut, step * 1.000001) == (False, 1.0)
    assert support_check(space, cut, 2 * step * 1.000001) == (True, 1.0)


def test_overlapping_safe_sets_label_from_the_first_slot():
    space = interval_space(21)
    regions = [ClassRegion(7, (SegmentPiece(0.2, 0.5),), [0.35]),
               ClassRegion(3, (SegmentPiece(0.4, 0.8),), [0.6])]
    pts = list(space.sample_set) + [0.123, 0.45, 0.55]
    for first in (0, 1):  # the later slot's safe set cached first, or not
        problem = MarginProblem(space, 0.1, regions, FamilyTag("interval_union", {}))
        problem.safe_points(first)
        assert problem.safe_labels(pts) == [_safe_label_oracle(problem, x) for x in pts]
        assert problem.safe_labels([0.45]) == [7]  # safe for both classes
        assert problem.safe_labels([0.85, 0.0, 0.45, 0.85]) == [3, None, 7, 3]


@pytest.mark.parametrize("name", sorted(_PROBLEMS))
def test_sample_set_distances_use_the_cached_arrays_exactly(name):
    space = _PROBLEMS[name].space
    sample = space.sample_set
    head = sample[:5]
    assert (space.dists(sample, head) == space.dists(list(sample), head)).all()
    assert (space.dists(head, sample) == space.dists(head, list(sample))).all()


def test_appending_to_the_sample_set_bypasses_its_cached_arrays():
    space = bouquet_space(2, 10.0, 0.5)
    space.sample_set.append(space.point(1, 1.2345))
    got = space.dists(space.sample_set, space.sample_set[-1:])
    assert got.shape == (len(space.sample_set), 1)
    assert got[-1, 0] == 0.0 and got[0, 0] == 1.2345


@pytest.mark.parametrize("name", ["wedge_k2", "union_mixed", "scaled"])
def test_canonical_reports_match_scalar_loops(name):
    problem = _PROBLEMS[name]
    cov = canonical_covering(problem, 1.6)
    rep = verify_covering(problem, cov)
    for tri, chk in zip(cov.triples, rep.triple_checks):
        assert chk.connected == _connected_oracle(problem.space, tri.support, cov.h)
        assert chk.diameter == _diameter_oracle(problem.space, tri.support)


@pytest.mark.parametrize("pts", [[0.5], [0.25, 0.5]])
def test_nan_step_is_refused(pts):
    space = interval_space(5)
    for support in (pts, []):  # a bad step is named before an empty list
        with pytest.raises(ValueError, match="step bound must be positive"):
            support_check(space, support, math.nan)


def test_empty_support_is_refused():
    with pytest.raises(ValueError, match="support_check of an empty point list"):
        support_check(interval_space(5), [], 1.0)
