"""Margin problems: construction, validation, safe regions, permutations."""

import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urwidth import problems
from urwidth.coverings import separation_certificate, width_bracket
from urwidth.problems import (
    FAMILIES,
    TOL,
    BallPiece,
    LiftedPiece,
    SegmentPiece,
    bouquet_problem,
    class_count,
    interval_union_problem,
    make_problem,
    parameter_window,
    permuted_problem,
    piece_gaps,
    scaled_problem,
    union_problem,
    validate_margin,
    wedge_problem,
)
from urwidth.serialize import bracket_doc, verify_bracket


def test_bouquet_pairwise_class_distance():
    p = bouquet_problem(3, 10.0, 1.0, 0.5)
    rep = validate_margin(p)
    # balls of radius gamma/4 around antipodes at mutual distance L
    assert rep.min_pair == pytest.approx(9.5)
    assert rep.strict_pass


def test_bouquet_single_class_vacuous_margin():
    p = bouquet_problem(1, 10.0, 1.0, 0.5)
    rep = validate_margin(p)
    assert rep.strict_pass
    assert rep.worst_pair is None


def test_bouquet_safe_ball_sample_count():
    p = bouquet_problem(3, 10.0, 1.0, 0.1)
    for j in range(3):
        # exhaustive scan oracle over the sample set
        scan = [
            x
            for x in p.space.sample_set
            if p.space.dist(x, p.space.antipode(j + 1)) <= 0.75 + 1e-9
        ]
        assert len(scan) >= 15
        assert sorted(p.safe_points(j)) == sorted(scan)


def test_bouquet_rejects_oversized_margin():
    with pytest.raises(ValueError):
        bouquet_problem(3, 10.0, 1.0001, 0.1)  # gamma >= L/10


def test_scaled_center_geometry():
    p = scaled_problem(2, 3, 60.0, 1.0, 0.5)
    assert p.k == 6
    centers = [r.pieces[0].center for r in p.regions]
    # consecutive same-loop gap L/(2m) = 10, exhaustively
    for loop_centers in (centers[:3], centers[3:]):
        for a, b in zip(loop_centers, loop_centers[1:]):
            assert p.space.dist(a, b) == pytest.approx(10.0)
    # every center at least L/4 = 15 from the wedge point, minimum attained
    dv = [p.space.dist(c, p.space.wedge_point) for c in centers]
    assert min(dv) == pytest.approx(15.0)
    assert all(d >= 15.0 - 1e-12 for d in dv)


def test_scaled_m1_reduces_to_bouquet():
    a = scaled_problem(3, 1, 10.0, 1.0, 0.5)
    b = bouquet_problem(3, 10.0, 1.0, 0.5)
    assert [r.pieces for r in a.regions] == [r.pieces for r in b.regions]
    assert [r.points for r in a.regions] == [r.points for r in b.regions]


def test_scaled_margin_report():
    p = scaled_problem(2, 3, 60.0, 1.0, 0.5)
    rep = validate_margin(p)
    assert rep.min_pair == pytest.approx(9.5)  # 10 - gamma/2 same-loop
    assert min(rep.pair_table.values()) - rep.gamma == pytest.approx(8.5)
    assert rep.strict_pass
    assert any("L/(2m)" in note for note in rep.notes)


def test_scaled_rejects_violated_spacing():
    with pytest.raises(ValueError):
        scaled_problem(2, 3, 9.0, 1.0, 0.5)  # L/m = 3 <= 3*gamma


def test_interval_problem_margin_strict():
    p = interval_union_problem([(0.1, 0.2), (0.6, 0.8)], 0.05, 101)
    rep = validate_margin(p)
    assert rep.min_pair > 0.05
    assert rep.strict_pass


def test_interval_problem_full_interval_rejected():
    with pytest.raises(ValueError):
        interval_union_problem([(0.0, 1.0)], 0.1, 101)


def test_interval_problem_negative_class_count():
    p = interval_union_problem([(0.0, 0.4)], 0.1, 101)
    neg = p.regions[1].points
    # grid points beyond the gamma-neighbourhood with one step of clearance:
    # [0.51, 1.0] on the 0.01 grid
    assert len(neg) == 50
    assert min(neg) == pytest.approx(0.51)
    assert max(neg) == pytest.approx(1.0)


def test_interval_problem_rejects_under_separated():
    with pytest.raises(ValueError):
        interval_union_problem([(0.1, 0.2), (0.24, 0.3)], 0.05, 101)


def test_validate_margin_fail_names_pair():
    # hand-built problem with two classes at distance exactly gamma
    from urwidth.problems import ClassRegion, FamilyTag, MarginProblem, SegmentPiece
    from urwidth.spaces import interval_space

    space = interval_space(101)
    regions = [
        ClassRegion(1, (SegmentPiece(0.0, 0.25),), [0.0, 0.25]),
        ClassRegion(2, (SegmentPiece(0.5, 0.75),), [0.5, 0.75]),
    ]
    p = MarginProblem(space, 0.25, regions, FamilyTag("custom", {}))
    rep = validate_margin(p)
    assert rep.min_pair == pytest.approx(0.25)
    assert not rep.strict_pass
    assert rep.worst_pair == (0, 1)


def test_validate_margin_reports_a_copy_of_the_pair_table():
    p = bouquet_problem(3, 10.0, 1.0, 0.5)
    rep, sep = validate_margin(p), separation_certificate(p, 4.0)
    table = dict(rep.pair_table)
    rep.pair_table[(0, 1)] = 0.0
    rep.pair_table[(1, 0)] = -1.0
    again = validate_margin(p)
    assert again.pair_table == table
    assert (again.min_pair, again.worst_pair, again.strict_pass) == (9.5, (0, 1), True)
    assert separation_certificate(p, 4.0) == sep


def test_one_class_certificate_is_standard_json():
    p = bouquet_problem(1, 10.0, 1.0, 0.5)
    doc = bracket_doc(p, width_bracket(p, 4.0))
    assert doc["lb"]["delta_star"] is None
    assert verify_bracket(json.loads(json.dumps(doc, allow_nan=False))) == (True, [])
    doc["lb"]["delta_star"] = math.inf  # as written before null
    ok, messages = verify_bracket(doc)
    assert not ok and [m.split(":")[0] for m in messages] == ["lb.delta_star"]


def test_safe_region_shrinks_to_classes_as_gamma_vanishes():
    tiny = bouquet_problem(2, 10.0, 1e-6, 0.25)
    for j in range(2):
        assert sorted(tiny.safe_points(j)) == sorted(tiny.regions[j].points)


def test_interval_safe_region_adds_grid_points():
    p = interval_union_problem([(0.2, 0.4)], 0.1, 101)
    pos_safe = p.safe_points(0)
    pos = p.regions[0].points
    # gamma/2 = 0.05 adds 5 grid points on each side
    assert len(pos_safe) == len(pos) + 10


def test_safe_region_monotone_in_gamma():
    big = bouquet_problem(3, 10.0, 1.0, 0.25)
    small = bouquet_problem(3, 10.0, 0.5, 0.25)
    for j in range(3):
        assert set(small.safe_points(j)) <= set(big.safe_points(j))


def test_safe_lists_pairwise_disjoint_on_random_instances():
    rnd = random.Random(23)
    for _ in range(20):
        w = rnd.randint(1, 4)
        L = rnd.uniform(6.0, 20.0)
        gamma = rnd.uniform(0.05, L / 10 * 0.95)
        p = bouquet_problem(w, L, gamma, L / rnd.randint(16, 40))
        seen = {}
        for j in range(p.k):
            for x in p.safe_points(j):
                assert x not in seen, f"point {x} safe for classes {seen[x]} and {j}"
                seen[x] = j


def test_permuted_problem_identity_and_swap():
    p = bouquet_problem(3, 10.0, 1.0, 0.5)
    same = permuted_problem(p, (1, 2, 3))
    assert same.labels == p.labels
    swapped = permuted_problem(p, (2, 1, 3))
    assert swapped.labels == [2, 1, 3]
    assert [r.pieces for r in swapped.regions] == [r.pieces for r in p.regions]


def test_permuted_problem_all_relabelings_share_geometry():
    p = bouquet_problem(3, 10.0, 1.0, 0.5)
    base = validate_margin(p)
    labelings = set()
    for sig in itertools.permutations((1, 2, 3)):
        q = permuted_problem(p, sig)
        labelings.add(tuple(q.labels))
        rep = validate_margin(q)
        assert rep.pair_table == base.pair_table  # bit-exact
    assert len(labelings) == 6


def test_permuted_problem_rejects_non_bijection():
    p = bouquet_problem(3, 10.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        permuted_problem(p, (1, 1, 3))


@pytest.mark.parametrize("sigma", [[2.9, 1.2], [2.0, 1.0], [True, 2], [2, False], "21",
                                   ["2", "1"], (np.True_, 2), 21, None])
def test_permuted_problem_refuses_labels_that_are_not_integers(sigma):
    # int() would read each of the first five as a bijection
    with pytest.raises(ValueError, match="sigma .* must hold integer labels"):
        permuted_problem(bouquet_problem(2, 10.0, 1.0, 0.5), sigma)


def test_permuted_problem_takes_numpy_integers():
    p = bouquet_problem(2, 10.0, 1.0, 0.5)
    q = permuted_problem(p, np.array([2, 1]))
    assert q.labels == [2, 1] and q.family.sigma == (2, 1)
    assert all(type(x) is int for x in q.family.sigma)


def test_wedge_problem_margin():
    p = wedge_problem(2, 2, 2.0, 1.0, n=32, seed=4)
    rep = validate_margin(p)
    import math

    assert rep.min_pair == pytest.approx(2 * math.pi * 2 - 0.5)
    assert rep.strict_pass


@settings(max_examples=60, deadline=None)
@given(R=st.floats(1e-3, 10.0), gamma=st.floats(1e-3, 10.0))
def test_wedge_problem_refuses_exactly_the_empty_window(R, gamma):
    if parameter_window("wedge", R=R, gamma=gamma).empty:
        with pytest.raises(ValueError, match="locality window is empty"):
            wedge_problem(2, 2, R, gamma, n=16)
    else:
        assert wedge_problem(2, 2, R, gamma, n=16).gamma == gamma


def test_union_problem_relabels_and_separates():
    a = bouquet_problem(2, 10.0, 1.0, 0.5)
    b = bouquet_problem(3, 10.0, 1.0, 0.5)
    u = union_problem(a, b, 100.0)
    assert u.labels == [1, 2, 3, 4, 5]
    rep = validate_margin(u)
    assert rep.strict_pass
    # cross-component class pairs are at least the separation apart
    for (i, j), d in rep.pair_table.items():
        if i < 2 <= j:
            assert d >= 100.0


# one instance per registered family; the unions mix bouquet, wedge and
# interval sides so lifted pieces meet points of both sides
_BOUQUET_TAG = {"name": "bouquet", "params": {"w": 2, "L": 10.0, "gamma": 0.5, "h": 0.5},
                "sigma": None}
_MEMBERSHIP_PROBLEMS = {
    "bouquet": make_problem("bouquet", {"w": 3, "L": 10.0, "gamma": 1.0, "h": 0.25}),
    "scaled": make_problem("scaled", {"w": 2, "m": 3, "L": 40.0, "gamma": 1.0, "h": 0.5}),
    "wedge": make_problem("wedge", {"w": 2, "k": 2, "R": 2.0, "gamma": 0.5, "n": 40,
                                    "seed": 3}),
    # the first interval holds no grid point, so its midpoint is appended
    "interval_union": make_problem("interval_union", {
        "intervals": [[0.101, 0.102], [0.4, 0.6]], "gamma": 0.05, "n_pts": 11}),
    "union": make_problem("union", {
        "s": 6.0, "left": _BOUQUET_TAG,
        "right": {"name": "wedge", "params": {"w": 1, "k": 1, "R": 1.5, "gamma": 0.5,
                                              "n": 24, "seed": 2}, "sigma": None}}),
    "union_interval": union_problem(
        interval_union_problem([(0.2, 0.5)], 0.1, 31), bouquet_problem(2, 10.0, 0.1, 0.5), 2.5),
}
# a union of unions: lifted pieces hold lifted pieces, and one side is itself a union
_MEMBERSHIP_PROBLEMS["union_nested"] = union_problem(
    bouquet_problem(1, 10.0, 0.1, 0.5), _MEMBERSHIP_PROBLEMS["union_interval"], 3.0)


@pytest.mark.parametrize("name", sorted(_MEMBERSHIP_PROBLEMS))
def test_class_count_reads_k_from_the_parameters(name):
    p = _MEMBERSHIP_PROBLEMS[name]
    assert class_count(p.family.name, p.family.params) == p.k


def test_class_count_builds_nothing_and_refuses_what_make_problem_does():
    params = {"w": 10**9, "m": 10**9, "L": 1.0, "gamma": 1.0, "h": 1e-9}
    assert class_count("scaled", params) == 10**18
    with pytest.raises(TypeError):
        class_count("scaled", {**params, "m": "ab"})
    with pytest.raises(ValueError, match="takes parameters"):
        class_count("bouquet", params)
    with pytest.raises(ValueError, match="family tag"):
        class_count("union", {"s": 1.0, "left": _BOUQUET_TAG, "right": 3})


def _piece_and_points(name):
    p = _MEMBERSHIP_PROBLEMS[name]
    pieces = [pc for r in p.regions for pc in r.pieces]
    pool = list(p.space.sample_set) + [x for r in p.regions for x in r.points]
    pool += [pc.center for pc in pieces if isinstance(pc, BallPiece)]
    return st.tuples(st.just(name), st.sampled_from(pieces),
                     st.lists(st.sampled_from(pool), max_size=12))


def _scalar_piece_dist(space, piece, x):
    # the analytic distance of one point, written out: a lifted piece seen
    # from the other side is the bridge plus its inner distance to the anchor
    if isinstance(piece, LiftedPiece):
        side, inner = x
        comp = (space.left, space.right)[piece.side]
        if side == piece.side:
            return _scalar_piece_dist(comp, piece.piece, inner)
        own = (space.left, space.right)[side]
        bridge = space.s + own.dist(inner, space.anchors[side])
        return bridge + _scalar_piece_dist(comp, piece.piece, space.anchors[piece.side])
    if isinstance(piece, BallPiece):
        return max(0.0, space.dist(piece.center, x) - piece.radius)
    return max(piece.lo - x, x - piece.hi, 0.0)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_MEMBERSHIP_PROBLEMS)).flatmap(_piece_and_points))
def test_piece_gaps_row_equals_scalar_piece_point_dist(case):
    name, piece, pts = case
    space = _MEMBERSHIP_PROBLEMS[name].space
    got = piece_gaps(space, [piece], pts)
    want = np.array([_scalar_piece_dist(space, piece, x) for x in pts], dtype=float)
    assert got.shape == (1, len(pts))
    assert got[0].tobytes() == want.tobytes()  # bit for bit, not approximately


def _extra_pieces(space, pool):
    # pieces of other kinds on the same space, so one list mixes kinds: balls
    # around interval points beside the segments, and lifted balls on a union
    if space.kind == "interval":
        return [BallPiece(x, r) for x in pool[:3] for r in (0.0, 0.05)]
    if space.kind != "disjoint_union":
        return []
    extra = []
    for side, comp in enumerate((space.left, space.right)):
        inner = [x for s, x in pool if s == side]
        for pc in _extra_pieces(comp, inner):
            gap = _scalar_piece_dist(comp, pc, space.anchors[side])
            extra.append(LiftedPiece(side, pc, gap))
    return extra


def _pieces_and_points(name):
    p = _MEMBERSHIP_PROBLEMS[name]
    pool = list(p.space.sample_set)
    pieces = [pc for r in p.regions for pc in r.pieces]
    pieces += _extra_pieces(p.space, pool)
    return st.tuples(st.just(name), st.lists(st.sampled_from(pieces), max_size=7),
                     st.lists(st.sampled_from(pool), max_size=12))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_MEMBERSHIP_PROBLEMS)).flatmap(_pieces_and_points))
def test_piece_gaps_rows_equal_scalar_oracle(case):
    # random piece lists, kinds and union sides mixed, empty lists included
    name, pieces, pts = case
    space = _MEMBERSHIP_PROBLEMS[name].space
    got = piece_gaps(space, pieces, pts)
    assert got.shape == (len(pieces), len(pts))
    for row, piece in zip(got, pieces):
        want = np.array([_scalar_piece_dist(space, piece, x) for x in pts], dtype=float)
        assert row.tobytes() == want.tobytes()


def test_piece_gaps_names_an_unknown_piece_type():
    space = _MEMBERSHIP_PROBLEMS["interval_union"].space
    with pytest.raises(TypeError, match="unknown piece type str"):
        piece_gaps(space, [SegmentPiece(0.0, 0.5), "ball"], [0.25])


def test_lifted_pieces_seen_from_both_sides():
    p = _MEMBERSHIP_PROBLEMS["union"]
    for r in p.regions:
        (piece,) = r.pieces
        assert isinstance(piece, LiftedPiece)
        got = piece_gaps(p.space, [piece], p.space.sample_set)
        want = [_scalar_piece_dist(p.space, piece, x) for x in p.space.sample_set]
        assert got.tolist() == [want]
        comp = (p.space.left, p.space.right)[piece.side]
        anchor = p.space.anchors[piece.side]
        assert piece.anchor_gap == _scalar_piece_dist(comp, piece.piece, anchor)
        other = [d for x, d in zip(p.space.sample_set, want) if x[0] != piece.side]
        assert other and min(other) >= p.space.s


def _scalar_rep(piece):
    if isinstance(piece, LiftedPiece):
        return (piece.side, _scalar_rep(piece.piece))
    if isinstance(piece, BallPiece):
        return piece.center
    return (piece.lo + piece.hi) / 2


def _scalar_members(space, pieces):
    # the scalar filter: grid members of the pieces, then the representative
    # of each piece that has no grid member
    pts = [x for x in space.sample_set
           if min(_scalar_piece_dist(space, pc, x) for pc in pieces) <= TOL]
    for pc in pieces:
        rep = _scalar_rep(pc)
        if all(_scalar_piece_dist(space, pc, x) > TOL for x in pts) and rep not in pts:
            pts.append(rep)
    return pts


@pytest.mark.parametrize("name", sorted(FAMILIES) + ["union_interval"])
def test_safe_sets_and_class_points_equal_scalar_filter(name):
    p = _MEMBERSHIP_PROBLEMS[name]
    for j, r in enumerate(p.regions):
        assert r.points == _scalar_members(p.space, r.pieces)
        want = [x for x in p.space.sample_set
                if min(_scalar_piece_dist(p.space, pc, x) for pc in r.pieces)
                <= p.gamma / 2 + TOL]
        want += [x for x in r.points if x not in want]
        assert p.safe_points(j) == want
    if name == "interval_union":
        assert 0.1015 in p.regions[0].points  # the appended representative


@pytest.mark.parametrize("cells", [3, problems.GAP_CELLS])
@pytest.mark.parametrize("permute", [False, True])
@pytest.mark.parametrize("name", sorted(_MEMBERSHIP_PROBLEMS))
def test_class_passes_equal_the_per_class_oracle(monkeypatch, name, permute, cells):
    # members, safe sets, the safe-slot index and class gaps, each from one
    # pass over every class, equal a scalar filter run class by class; three
    # cells leave every sample-set pass one class per kernel call, and cut
    # the class_gaps passes over a few points into runs of several classes
    monkeypatch.setattr(problems, "GAP_CELLS", cells)
    base = _MEMBERSHIP_PROBLEMS[name]
    p = make_problem(base.family.name, base.family.params,
                     tuple(range(base.k, 0, -1)) if permute else None)
    space, sample = p.space, p.space.sample_set

    def gap(r, x):
        return min(_scalar_piece_dist(space, pc, x) for pc in r.pieces)

    safe = [[x for x in sample if gap(r, x) <= p.gamma / 2 + TOL] for r in p.regions]
    for r in p.regions:
        assert r.points == _scalar_members(space, r.pieces)
    for j in reversed(range(p.k)):  # last slot first: a point still keeps its lowest slot
        assert p.safe_points(j) == safe[j] + [x for x in p.regions[j].points if x not in safe[j]]
    slots = {}
    for j, pts in enumerate(safe):
        for x in pts:
            slots.setdefault(x, j)
    assert p._safe_slot == slots
    for pts in ([], sample[:1], sample[1:3], sample[::7]):
        want = np.array([[gap(r, x) for x in pts] for r in p.regions], dtype=float)
        got = p.class_gaps(pts)
        assert got.shape == (p.k, len(pts)) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("side", [0, 1])
def test_nested_union_keeps_the_inner_union(side):
    inner = union_problem(bouquet_problem(2, 10.0, 0.5, 0.5),
                          wedge_problem(1, 1, 1.5, 0.5, n=24, seed=2), 6.0)
    other = bouquet_problem(1, 10.0, 0.5, 0.5)
    outer = union_problem(*((inner, other) if side == 0 else (other, inner)), 4.0)
    off = 0 if side == 0 else other.k
    table, inner_table = validate_margin(outer).pair_table, validate_margin(inner).pair_table
    for (i, j), d in inner_table.items():
        assert table[(i + off, j + off)] == d
    space = outer.space
    comps = (space.left, space.right)

    def to_anchor(slot):  # every class here is one piece
        (pc,) = outer.regions[slot].pieces
        return _scalar_piece_dist(comps[pc.side], pc.piece, space.anchors[pc.side])

    for (i, j), d in table.items():
        if outer.regions[i].pieces[0].side != outer.regions[j].pieces[0].side:
            assert d == space.s + to_anchor(i) + to_anchor(j)
    for j in range(inner.k):
        assert outer.safe_points(j + off) == [(side, x) for x in inner.safe_points(j)]
    br = width_bracket(outer, 1.0)
    assert (br.lb, br.ub) == (4, 4) and br.report.passed
    doc = json.loads(json.dumps(bracket_doc(outer, br)))
    assert verify_bracket(doc) == (True, [])
