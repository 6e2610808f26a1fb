"""Covering verification, certificates, exact cover search, width brackets."""

import itertools
import math
import random
from functools import reduce
from operator import or_

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urwidth import coverings, problems
from urwidth.coverings import (
    TOL,
    _ball_support,
    _candidate_balls,
    _exact_cover,
    _packing_bound,
    _reach_components,
    canonical_covering,
    certify,
    default_step,
    min_ball_cover,
    separation_certificate,
    verify_covering,
    width_bracket,
)
from urwidth.problems import (
    GAP_CELLS,
    BallPiece,
    ClassRegion,
    FamilyTag,
    MarginProblem,
    SegmentPiece,
    bouquet_problem,
    interval_union_problem,
    parameter_window,
    permuted_problem,
    scaled_problem,
    union_problem,
    wedge_problem,
)
from urwidth.serialize import bracket_doc
from urwidth.spaces import BLOCK, graph_space, interval_space, support_check


def test_canonical_bouquet_covering_passes_all_conditions():
    p = bouquet_problem(3, 10.0, 1.0, 0.25)
    cov = canonical_covering(p, 4.0)
    assert cov.size == 3
    for tri in cov.triples:
        assert support_check(p.space, tri.support, cov.h) == (True, pytest.approx(1.5))
    rep = verify_covering(p, cov)
    assert rep.passed


def test_canonical_single_class():
    p = bouquet_problem(1, 10.0, 1.0, 0.25)
    assert canonical_covering(p, 4.0).size == 1


def test_canonical_rejects_tight_locality():
    p = bouquet_problem(3, 10.0, 1.0, 0.25)
    with pytest.raises(ValueError):
        canonical_covering(p, 1.0)  # below 3*gamma/2


def test_deleted_triple_breaks_coverage_with_named_ball():
    p = bouquet_problem(3, 10.0, 1.0, 0.25)
    cov = canonical_covering(p, 4.0)
    dropped_label = cov.triples[1].assignment[cov.triples[1].support[0]]
    del cov.triples[1]
    rep = verify_covering(p, cov)
    assert not rep.passed
    assert rep.uncovered
    assert {lab for lab, _ in rep.uncovered} == {dropped_label}


def test_overwide_support_fails_diameter_with_witness():
    p = bouquet_problem(2, 10.0, 1.0, 0.25)
    cov = canonical_covering(p, 4.0)
    # graft a point from the other loop onto triple 0
    alien = p.safe_points(1)[0]
    cov.triples[0].support.append(alien)
    cov.triples[0].assignment[alien] = p.regions[1].label
    cov.h = 10.0  # keep connectivity out of the picture
    rep = verify_covering(p, cov)
    assert not rep.triple_checks[0].diameter_ok
    support = cov.triples[0].support
    # the widest pair, from the scalar metric
    widest = max(p.space.dist(x, y) for x in support for y in support)
    assert rep.triple_checks[0].diameter == widest > 4.0


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan])
def test_step_that_is_not_positive_fails_connectivity_and_keeps_diameters(h):
    p = bouquet_problem(3, 10.0, 1.0, 0.5)
    cov = canonical_covering(p, 4.0)
    measured = [chk.diameter for chk in verify_covering(p, cov).triple_checks]
    cov.h = h
    rep = verify_covering(p, cov)
    assert not rep.passed and not rep.connectivity_ok
    assert [chk.connected for chk in rep.triple_checks] == [False] * cov.size
    assert [chk.diameter for chk in rep.triple_checks] == measured
    assert rep.diameters_ok and rep.coverage_ok and rep.correctness_ok


def test_mislabelled_support_point_reported():
    p = bouquet_problem(2, 10.0, 1.0, 0.25)
    cov = canonical_covering(p, 4.0)
    x = cov.triples[0].support[0]
    cov.triples[0].assignment[x] = p.regions[1].label
    rep = verify_covering(p, cov)
    assert not rep.correctness_ok
    assert rep.violations[0][1] == x


def test_scaled_canonical_covering_verifies():
    p = scaled_problem(2, 3, 60.0, 1.0, 0.5)
    cov = canonical_covering(p, 4.0)
    assert cov.size == 6
    assert verify_covering(p, cov).passed


def test_separation_certificate_bouquet():
    p = bouquet_problem(3, 10.0, 1.0, 0.5)
    cert = separation_certificate(p, 4.0)
    assert cert.delta_star == pytest.approx(8.5)
    assert cert.lb == 3
    assert cert.method == "pairwise-separation"


def test_separation_certificate_scaled():
    p = scaled_problem(2, 3, 60.0, 1.0, 0.5)
    cert = separation_certificate(p, 4.0)
    assert cert.lb == 6
    assert cert.delta_star == pytest.approx(8.5)
    # cross-loop safe sets at distance >= 2*(L/4 - 3*gamma/4)
    cross = [
        d for (i, j), d in cert.delta_table.items() if (i < 3) != (j < 3)
    ]
    assert min(cross) >= 2 * (60.0 / 4 - 0.75) - 1e-9


def test_separation_certificate_reach_components():
    p = bouquet_problem(3, 10.0, 1.0, 0.5)
    cert = separation_certificate(p, 10.0)  # D0 = L: reach graph complete
    assert cert.lb == 1
    assert cert.method == "reach-components"
    assert cert.components == [[0, 1, 2]]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reach_components_match_networkx(data):
    k = data.draw(st.integers(1, 30))
    d0 = data.draw(st.sampled_from([0.25, 1.0, 3.0]))
    pairs = list(itertools.combinations(range(k), 2))
    # at most k reach edges, so the components stay many; an edge may sit at
    # exactly d0 and a non-edge just above it
    near = data.draw(st.lists(st.sampled_from(pairs), max_size=k, unique=True)) if pairs else []
    near_d = st.one_of(st.just(d0), st.floats(0.0, d0))
    far_d = st.sampled_from([math.nextafter(d0, math.inf), 1.5 * d0, 2.0 * d0])
    table = dict(zip(pairs, data.draw(st.lists(far_d, min_size=len(pairs), max_size=len(pairs)))))
    table.update(zip(near, data.draw(st.lists(near_d, min_size=len(near), max_size=len(near)))))
    reach = nx.Graph()
    reach.add_nodes_from(range(k))
    reach.add_edges_from(pair for pair, d in table.items() if d <= d0)
    expected = sorted(sorted(c) for c in nx.connected_components(reach))
    assert _reach_components(k, table, d0) == expected


def test_min_ball_cover_matches_canonical_size():
    p = bouquet_problem(3, 10.0, 1.0, 0.5)
    cov, info = min_ball_cover(p, 4.0)
    assert info.method == "exact-dp"
    assert info.size == 3
    assert verify_covering(p, cov).passed


def test_min_ball_cover_single_ball():
    p = bouquet_problem(1, 10.0, 1.0, 0.5)
    cov, info = min_ball_cover(p, 4.0)
    assert info.size == 1


def test_min_ball_cover_exhaustive_minimality_oracle():
    # independent oracle: no smaller subset of the same candidate family covers
    from urwidth.coverings import _candidate_balls

    p = bouquet_problem(2, 10.0, 1.0, 0.5)
    d0 = 4.0
    cov, info = min_ball_cover(p, d0)
    universe, _, candidates = _candidate_balls(p, d0)
    full = (1 << len(universe)) - 1
    masks = [m for m, _, _ in candidates]
    for size in range(1, info.size):
        for combo in itertools.combinations(range(len(masks)), size):
            acc = 0
            for i in combo:
                acc |= masks[i]
            assert acc != full, f"cover of size {size} exists, solver said {info.size}"


def test_min_ball_cover_small_locality_needs_multiple_patches_per_ball():
    # D0 = 0.5 < safe-arc diameter 1.5: each arc needs >= 3 patches
    p = bouquet_problem(2, 10.0, 1.0, 0.25)
    cov, info = min_ball_cover(p, 0.5)
    assert info.method == "exact-dp"
    assert info.size >= 2 * math.ceil(1.5 / 0.5)
    assert verify_covering(p, cov).passed


def test_hierarchy_infeasibility_below_width():
    # inside the admissible window no covering of size w-1 exists; the exact
    # solver proves it over the ball family for w = 2, 3
    for w in (2, 3):
        p = bouquet_problem(w, 10.0, 1.0, 0.5)
        _, info = min_ball_cover(p, 4.0)
        assert info.size == w


def test_width_bracket_bouquet_window():
    for w in (1, 2, 3, 4):
        p = bouquet_problem(w, 10.0, 1.0, 0.5)
        br = width_bracket(p, 4.0)
        assert (br.lb, br.ub) == (w, w)
        assert br.exact
        assert br.report.passed


def test_width_bracket_wedge():
    p = wedge_problem(2, 2, 2.0, 1.0, n=64, seed=5)
    br = width_bracket(p, 3.0)
    assert (br.lb, br.ub) == (2, 2)


def test_width_bracket_additivity_on_separated_union():
    a = bouquet_problem(2, 10.0, 1.0, 0.5)
    b = bouquet_problem(3, 10.0, 1.0, 0.5)
    br_a = width_bracket(a, 4.0)
    br_b = width_bracket(b, 4.0)
    u = union_problem(a, b, 100.0)
    br_u = width_bracket(u, 4.0)
    assert (br_u.lb, br_u.ub) == (br_a.lb + br_b.lb, br_a.ub + br_b.ub) == (5, 5)


@pytest.mark.parametrize("order", [1, -1])
def test_unsafe_filler_at_a_tie_takes_the_lower_slot(order):
    # dyadic ends on the 5-point grid: 0.5 is exactly 0.25 from both classes
    regions = [ClassRegion(2, (SegmentPiece(0.0, 0.25),), (0.125,)),
               ClassRegion(1, (SegmentPiece(0.75, 1.0),), (0.875,))][::order]
    p = MarginProblem(interval_space(5), 0.25, regions, FamilyTag("interval_union", {}))
    assert p.class_gaps([0.5]).tolist() == [[0.25], [0.25]]
    assert p.safe_labels([0.5]) == [None]
    cov, info = min_ball_cover(p, 1.0)
    assert (info.method, info.size) == ("exact-dp", 1)
    (tri,) = cov.triples
    assert tri.support == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert tri.assignment == {0.0: 2, 0.25: 2, 0.5: regions[0].label, 0.75: 1, 1.0: 1}
    assert verify_covering(p, cov).passed


@pytest.mark.parametrize("order", [1, -1])
def test_min_ball_cover_takes_one_class_gaps_pass(monkeypatch, order):
    # the class gaps that find the filler points unsafe also pick their
    # labels: 0.375 lies nearer the left class, 0.5 nearer the right one
    regions = [ClassRegion(2, (SegmentPiece(0.0, 0.25),), (0.125,)),
               ClassRegion(1, (SegmentPiece(0.625, 1.0),), (0.8125,))][::order]
    p = MarginProblem(interval_space(9), 0.125, regions, FamilyTag("interval_union", {}))
    calls, class_gaps = [], MarginProblem.class_gaps
    monkeypatch.setattr(MarginProblem, "class_gaps",
                        lambda self, pts: calls.append(list(pts)) or class_gaps(self, pts))
    cov, _ = min_ball_cover(p, 1.0)
    assert calls == [[0.375, 0.5]]
    (tri,) = cov.triples
    assert (tri.assignment[0.375], tri.assignment[0.5]) == (2, 1)


def test_width_bracket_interval_problem_is_one():
    p = interval_union_problem([(0.1, 0.3)], 0.1, 51)
    br = width_bracket(p, 1.0)
    assert (br.lb, br.ub) == (1, 1)
    assert br.exact


def test_margin_monotonicity_of_bracket_endpoints():
    rnd = random.Random(31)
    for _ in range(10):
        w = rnd.randint(1, 3)
        L = rnd.uniform(8.0, 16.0)
        gamma = rnd.uniform(0.2, L / 10 * 0.9)
        h = L / rnd.randint(20, 30)
        lo, hi = 1.5 * gamma, L / 2 - 0.75 * gamma
        d0 = rnd.uniform(lo, hi * 0.999)
        big = bouquet_problem(w, L, gamma, h)
        small = bouquet_problem(w, L, gamma / 2, h)
        br_big = width_bracket(big, d0)
        br_small = width_bracket(small, d0)
        assert br_small.ub <= br_big.ub
        assert br_small.lb <= br_big.lb


def test_verify_covering_connectivity_failure():
    p = bouquet_problem(2, 10.0, 1.0, 0.25)
    cov = canonical_covering(p, 4.0)
    cov.h = 0.1  # below the sample spacing: supports fall apart
    rep = verify_covering(p, cov)
    assert not rep.connectivity_ok
    assert not rep.passed


def test_min_ball_cover_infeasible_reports_uncovered():
    # on a grid of step 3 the off-grid class sample at s = 7.5 lies 1.5 from
    # every ball centre, beyond the largest radius D0/2 = 0.75
    p = scaled_problem(1, 2, 30.0, 1.0, 3.0)
    with pytest.raises(ValueError, match="uncovered"):
        min_ball_cover(p, 1.5)


@pytest.mark.parametrize("d0", [math.nan, math.inf, -math.inf])
def test_min_ball_cover_rejects_a_d0_that_is_not_finite(d0):
    with pytest.raises(ValueError, match=r"D0 must be finite, got d0="):
        min_ball_cover(bouquet_problem(1, 10.0, 1.0, 0.5), d0)


def test_min_ball_cover_rejects_a_negative_d0():
    p = bouquet_problem(1, 10.0, 1.0, 0.5)
    with pytest.raises(ValueError, match=r"D0 must be non-negative, got d0=-1.0"):
        min_ball_cover(p, -1.0)
    # below the window the bracket falls back to the search, which names it too
    with pytest.raises(ValueError, match=r"D0 must be non-negative, got d0=-1.0"):
        width_bracket(p, -1.0)


def test_min_ball_cover_d0_zero_takes_singleton_balls():
    p = interval_union_problem([(0.1, 0.3)], 0.1, 11)
    cov, info = min_ball_cover(p, 0.0)
    assert info.size == info.universe
    assert all(len(t.support) == 1 for t in cov.triples)
    assert verify_covering(p, cov).passed


def test_min_ball_cover_greedy_above_exact_limit():
    p = interval_union_problem([(0.1, 0.3)], 0.1, 101)
    cov, info = min_ball_cover(p, 1.0)
    assert info.universe > 24
    assert info.method == "greedy"
    assert info.size == 1
    assert verify_covering(p, cov).passed


def test_wedge_problem_rejects_oversized_margin():
    with pytest.raises(ValueError):
        wedge_problem(2, 2, 0.1, 1.0, n=16, seed=0)


def test_refinement_monotonicity():
    # coarsening labels (merging two classes) never raises either endpoint
    from urwidth.problems import ClassRegion, FamilyTag, MarginProblem

    fine = bouquet_problem(3, 10.0, 1.0, 0.5)
    merged = ClassRegion(
        1,
        fine.regions[0].pieces + fine.regions[1].pieces,
        fine.regions[0].reps + fine.regions[1].reps,
    )
    coarse = MarginProblem(
        fine.space,
        fine.gamma,
        [merged, ClassRegion(2, fine.regions[2].pieces, fine.regions[2].reps)],
        FamilyTag("custom", {}),
    )
    br_fine = width_bracket(fine, 4.0)
    br_coarse = width_bracket(coarse, 4.0)
    assert br_coarse.lb <= br_fine.lb
    assert br_coarse.ub <= br_fine.ub
    # the merged class still needs one patch per ball, so ub stays 3
    assert br_coarse.ub == 3


def test_parameter_windows():
    wb = parameter_window("bouquet", L=10.0, gamma=1.0)
    assert (wb.lo, wb.hi) == (1.5, 4.25)
    assert not wb.empty
    empty = parameter_window("bouquet", L=4.5, gamma=1.0)
    assert empty.empty
    assert "9*gamma/2" in empty.note
    ws = parameter_window("scaled", L=60.0, gamma=1.0, m=3)
    assert (ws.lo, ws.hi) == (1.5, 8.5)
    ww = parameter_window("wedge", R=2.0, gamma=1.0)
    assert ww.lo == 1.5
    assert ww.hi == pytest.approx(2 * math.pi - 0.75)
    assert ww.contains(3.0)


def test_bracket_soundness_recheck():
    # whenever the bracket is exact, both certificates re-verify independently
    p = scaled_problem(2, 2, 40.0, 1.0, 0.5)
    br = width_bracket(p, 4.0)
    assert br.exact
    again = separation_certificate(p, br.d0)
    assert again.lb == br.lb
    assert again.delta_star > br.d0
    assert verify_covering(p, br.covering).passed


def test_width_bracket_walks_the_class_pairs_once(monkeypatch):
    # the margin check and the lower bound read one pair table
    calls, piece_pair_dist = [], problems.piece_pair_dist
    monkeypatch.setattr(problems, "piece_pair_dist",
                        lambda *args: calls.append(args) or piece_pair_dist(*args))
    width_bracket(bouquet_problem(5, 10.0, 1.0, 0.5), 4.0)
    assert len(calls) == math.comb(5, 2)


@pytest.mark.parametrize("make, d0, method", [
    (lambda: bouquet_problem(3, 10.0, 1.0, 0.5), 4.0, "canonical"),
    (lambda: scaled_problem(2, 2, 40.0, 1.0, 0.5), 4.0, "canonical"),
    (lambda: wedge_problem(2, 2, 2.0, 1.0, n=64, seed=5), 3.0, "canonical"),
    (lambda: union_problem(bouquet_problem(2, 10.0, 1.0, 0.5),
                           bouquet_problem(1, 10.0, 1.0, 0.5), 100.0), 4.0, "canonical"),
    (lambda: permuted_problem(bouquet_problem(3, 10.0, 1.0, 0.5), (2, 3, 1)), 4.0, "canonical"),
    (lambda: interval_union_problem([(0.1, 0.3), (0.6, 0.7)], 0.02, 201), 0.1, "greedy"),
], ids=["bouquet", "scaled", "wedge", "union", "permuted", "interval-greedy"])
def test_certify_rebuilds_the_width_bracket(make, d0, method):
    p = make()
    br = width_bracket(p, d0)
    assert br.ub_method == method
    assert bracket_doc(p, certify(p, d0, br.covering, br.ub_method)) == bracket_doc(p, br)


def _scalar_candidate_balls(problem, d0):
    """Reference search: every ball filtered from the whole pool, one scalar
    distance at a time, with diameter and chain connectivity re-derived."""
    space = problem.space
    h = default_step(space)
    universe = problem.all_safe_points()
    pool = list(space.sample_set)
    known = set(pool)
    for _, x in universe:
        if x not in known:
            pool.append(x)
            known.add(x)
    bit = {x: i for i, (_, x) in enumerate(universe)}
    step = space.resolution / 2
    radii = [step * i for i in range(1, int(math.floor(d0 / 2 / step + TOL)) + 1)]
    if not radii or radii[-1] < d0 / 2 - TOL:
        radii.append(d0 / 2)
    candidates = []
    seen_masks = set()
    for c in space.sample_set:
        dists = [(space.dist(c, x), x) for x in pool]
        for r in radii:
            support = [x for d, x in dists if d <= r + TOL]
            mask = 0
            for x in support:
                i = bit.get(x)
                if i is not None:
                    mask |= 1 << i
            if mask == 0 or mask in seen_masks:
                continue
            connected, diameter = support_check(space, support, h)
            if diameter > d0 + TOL or not connected:
                continue
            seen_masks.add(mask)
            candidates.append((support, mask))
    return universe, candidates


def _slack_reach_instance():
    """A graph whose first centre, ``a``, holds one safe sample, ``x``, in
    its largest ball, and only inside the TOL slack: d(a, x) = 3.0 equals
    D0/2 + TOL exactly, while D0/2 < 3.0.  That ball (diameter d(z2, x) =
    5) is the first candidate with mask {x}; the other centres reaching x
    hold other point sets."""
    space = graph_space([("z2", "z1"), ("z1", "a"), ("a", "b"), ("b", "c"), ("c", "x"),
                         ("x", "p"), ("p", "q"), ("q", "r"), ("r", "s"), ("s", "y")])
    regions = [ClassRegion(1, (BallPiece("x", 0.0),), ["x"]),
               ClassRegion(2, (BallPiece("y", 0.0),), ["y"])]
    d0 = 6.0 - 2e-9
    assert d0 / 2 < 3.0 == d0 / 2 + TOL
    return MarginProblem(space, 1.0, regions, FamilyTag("graph", {})), d0


def _bridged_interval_union():
    """Two 21-point intervals bridged at 0.3, three times the step 0.1: a
    ball that crosses the bridge is not chain-connected, so the rows whose
    largest ball crosses it lack the chain certificate and fall back to the
    union-find."""
    left = interval_union_problem([(0.5, 0.7)], 0.05, 21)
    right = interval_union_problem([(0.4, 0.6)], 0.05, 21)
    return union_problem(left, right, 0.3), 1.0


def _tie_break_instance():
    """A union whose right point ``b`` ties with the right anchor ``a`` in
    distance from every left centre l2..l8: d(c, b) = d(c, a) + 2**-52
    rounds to d(c, a) >= 2, while d(l0, b) = 1 + 2**-52 exceeds the step h
    = 1 = s.  So b's one step neighbour before it in (distance, index)
    order is a, and only by the index tie-break."""
    tiny = 2.0 ** -52
    path = graph_space([(f"l{i}", f"l{i + 1}", 0.5) for i in range(8)])
    pair = graph_space([("a", "b", tiny)])
    left = MarginProblem(path, 0.5, [ClassRegion(1, (BallPiece("l8", 0.0),), ["l8"])],
                         FamilyTag("graph", {}))
    right = MarginProblem(pair, 0.5, [ClassRegion(1, (BallPiece("b", 0.0),), ["b"])],
                          FamilyTag("graph", {}))
    p = union_problem(left, right, 1.0)
    assert default_step(p.space) == 1.0 < p.space.dist((0, "l0"), (1, "b"))
    assert p.space.dist((0, "l2"), (1, "b")) == p.space.dist((0, "l2"), (1, "a")) == 2.0
    return p, 10.0


def _golden_instances():
    rng = random.Random(8)
    out = []
    for _ in range(4):
        w, L = rng.randint(1, 5), rng.uniform(8.0, 14.0)
        gamma = rng.uniform(L / 15, L / 10)
        p = bouquet_problem(w, L, gamma, L / rng.randint(16, 40))
        out.append((p, rng.uniform(0.5, 4.0)))
    for _ in range(2):
        w, m = rng.randint(1, 3), rng.randint(2, 3)
        p = scaled_problem(w, m, 30.0, 1.0, rng.choice([0.5, 1.0]))
        out.append((p, rng.uniform(1.0, 4.0)))
    for _ in range(2):
        a = rng.uniform(0.1, 0.4)
        p = interval_union_problem([(a, a + 0.1), (a + 0.3, a + 0.45)], 0.1, rng.randint(21, 61))
        out.append((p, rng.uniform(0.05, 0.6)))
    left = bouquet_problem(2, 10.0, 1.0, 0.5)
    out.append((union_problem(left, bouquet_problem(1, 10.0, 1.0, 1.0), 3.0), 2.5))
    # D0/2 sits 0.75e-9 below the grid distance 2.0, inside the TOL slack:
    # the ball of radius D0/2 about the wedge point takes points 2.0 out on
    # every loop, so the triangle bound fails and the exact diameter,
    # 4.0 > D0 + TOL, rejects it
    out.append((bouquet_problem(3, 10.0, 1.0, 0.5), 4.0 - 1.5e-9))
    out.append((bouquet_problem(12, 10.0, 1.0, 0.1), 4.0))
    # wedges, whose ``dists`` sums cached pole angles: D0 below the window
    # [3*gamma/2, pi*R - 3*gamma/4) = [1.95, 2.17) and inside it
    out.append((wedge_problem(2, 1, 1.0, 1.3, n=24, seed=3), 1.0))
    out.append((wedge_problem(2, 2, 1.0, 1.3, n=32, seed=4), 2.0))
    out.append((wedge_problem(2, 1, 1.0, 1.3, n=20, seed=6), 2.1))
    # two grid steps above 3*gamma/2: the largest ball of 257 of the 313
    # centres holds no safe sample, so their rows are dropped unsearched
    win = parameter_window("bouquet", L=16.0, gamma=1.0)
    out.append((bouquet_problem(8, 16.0, 1.0, 0.4), win.lo + 2 * 0.4))
    out.append(_slack_reach_instance())
    out.append(_bridged_interval_union())
    out.append(_tie_break_instance())
    out += _screened_instances()
    # pools of 229 and 190 points, two chunks each: the second chunk takes
    # its first columns from the first chunk's rows, on the scalar union
    # loop and on a wedge
    left = bouquet_problem(2, 10.0, 1.0, 0.1)
    out.append((union_problem(left, bouquet_problem(1, 10.0, 1.0, 0.25), 2.0), 4.0))
    out.append((wedge_problem(2, 1, 1.0, 1.3, n=100, seed=7), 2.0))
    return [pytest.param(p, d0, id=f"{p.family.name}-{i}") for i, (p, d0) in enumerate(out)]


def _screened_instances():
    """Instances whose pool screen drops sample points: a wedge below its
    window [0.75, 5.91), a bouquet and a scaled problem at D0 < gamma, and
    a union whose bridge s is shorter than D0/2."""
    return [
        (wedge_problem(3, 2, 2.0, 0.5, n=40, seed=5), 0.4),
        (bouquet_problem(3, 10.0, 1.0, 0.25), 0.5),
        (scaled_problem(2, 3, 30.0, 1.0, 0.25), 0.75),
        (union_problem(bouquet_problem(2, 10.0, 1.0, 0.5), bouquet_problem(1, 10.0, 1.0, 0.5),
                       1.0), 3.0),
    ]


@pytest.mark.parametrize("problem, d0", _screened_instances(),
                         ids=["wedge", "bouquet", "scaled", "union"])
def test_the_screen_drops_sample_points_on_the_screened_golden_instances(problem, d0):
    _, pool, _ = _candidate_balls(problem, d0)
    assert len(pool) < len(problem.space.sample_set)


def _materialised(problem, d0):
    """``_candidate_balls`` with every candidate's support built, in the
    reference's (support, mask) shape."""
    universe, pool, candidates = _candidate_balls(problem, d0)
    return universe, [(_ball_support(pool, near, size), mask) for mask, near, size in candidates]


@pytest.mark.parametrize("problem, d0", _golden_instances())
def test_candidate_balls_match_scalar_reference(problem, d0):
    assert _materialised(problem, d0) == _scalar_candidate_balls(problem, d0)


@pytest.mark.parametrize("problem, d0", _golden_instances())
def test_min_ball_cover_builds_the_chosen_reference_supports(problem, d0):
    # the supports are built only for the chosen balls; each must be the
    # reference candidate's, points in pool order
    cov, info = min_ball_cover(problem, d0)
    _, reference = _scalar_candidate_balls(problem, d0)
    assert info.n_candidates == len(reference)
    assert [t.support for t in cov.triples] == [reference[ci][0] for ci in info.chosen]


def _scalar_least_gap(problem, x):
    """The distance from ``x`` to the nearest class, one scalar distance at
    a time: the ball pieces of the bouquet, and the interval's segments."""
    gaps = []
    for region in problem.regions:
        for pc in region.pieces:
            if isinstance(pc, BallPiece):
                gaps.append(max(0.0, problem.space.dist(pc.center, x) - pc.radius))
            else:
                gaps.append(max(0.0, pc.lo - x, x - pc.hi))
    return min(gaps)


@pytest.mark.parametrize("make, d0, dropped", [
    # the wedge point lies 4.75 from every class, beyond D0 + gamma/2 = 4.5
    (lambda: bouquet_problem(3, 10.0, 1.0, 0.5), 4.0, 1),
    # at D0 + gamma/2 = 4.75 nothing is screened out
    (lambda: bouquet_problem(3, 10.0, 1.0, 0.5), 4.25, 0),
    # neither interval holds a point of the 0.1 grid, and only 0.0 lies
    # beyond D0 + gamma/2 = 0.075 of both classes
    (lambda: interval_union_problem([(0.61, 0.64), (0.11, 0.14)], 0.05, 11), 0.05, 1),
    (lambda: interval_union_problem([(0.61, 0.64), (0.11, 0.14)], 0.05, 11), 0.3, 0),
], ids=["bouquet-screened", "bouquet-whole", "interval-screened", "interval-whole"])
def test_candidate_pool_is_the_screened_sample_set_then_the_off_grid_safe_points(make, d0,
                                                                                 dropped):
    p = make()
    universe, pool, _ = _candidate_balls(p, d0)
    sample = p.space.sample_set
    near = [x for x in sample if _scalar_least_gap(p, x) <= d0 + p.gamma / 2]
    assert len(sample) - len(near) == dropped
    extra = [x for _, x in universe if x not in sample]
    assert pool == near + extra
    if p.family.name == "interval_union":
        assert extra == [(0.11 + 0.14) / 2, (0.61 + 0.64) / 2]
    if not dropped and not extra:
        # the search scans the sample set itself, whose coordinates the
        # space caches, not a copy
        assert pool is sample


@pytest.mark.parametrize("make, d0", [
    # the golden case two grid steps above 3*gamma/2, whose balls at D0/2
    # also take exact-diameter checks
    (lambda: bouquet_problem(8, 16.0, 1.0, 0.4),
     parameter_window("bouquet", L=16.0, gamma=1.0).lo + 2 * 0.4),
    # the off-grid case above: the pool is longer than the sample set, and
    # at D0 = 0.05 longer than the screened sample set
    (lambda: interval_union_problem([(0.61, 0.64), (0.11, 0.14)], 0.05, 11), 0.3),
    (lambda: interval_union_problem([(0.61, 0.64), (0.11, 0.14)], 0.05, 11), 0.05),
    # a pool of 1,140 points, made BLOCK rows at a time
    (lambda: bouquet_problem(12, 10.0, 1.0, 0.1), 4.0),
], ids=["bouquet", "interval-off-grid", "interval-screened", "bouquet-blocks"])
def test_candidate_balls_take_one_pool_distance_pass(monkeypatch, make, d0):
    # the step graph and the centre rows share one pass over the pool x
    # pool distances, max(BLOCK, GAP_CELLS // len(pool)) rows at a time,
    # each pair once: a chunk's rows meet the pool from their own first row
    # on; every other request is a support against itself
    p = make()
    p.all_safe_points()  # the safe sets are cached, each built from its own rows
    calls, dists = [], type(p.space).dists
    monkeypatch.setattr(type(p.space), "dists",
                        lambda self, ps, qs: calls.append((ps, qs)) or dists(self, ps, qs))
    _, pool, _ = _candidate_balls(p, d0)
    span = max(BLOCK, GAP_CELLS // len(pool))
    starts = range(0, len(pool), span)
    assert calls[0][1] is pool
    assert [(list(ps), list(qs)) for ps, qs in calls[: len(starts)]] == \
        [(pool[lo : lo + span], pool[lo:]) for lo in starts]
    assert all(ps is qs for ps, qs in calls[len(starts) :])


def test_bouquet_w12_cover_size():
    # the same instance as the last golden case, which checks its candidates
    _, info = min_ball_cover(bouquet_problem(12, 10.0, 1.0, 0.1), 4.0)
    assert (info.universe, info.n_candidates) == (180, 936)
    assert (info.method, info.size) == ("greedy", 12)


@pytest.mark.parametrize("problem", [
    interval_union_problem([(0.2, 0.3), (0.6, 0.7)], 0.05, 21),
    wedge_problem(2, 2, 2.0, 1.0, n=16, seed=1),
], ids=["interval", "wedge"])
def test_huge_d0_stops_the_radius_ladder_at_the_pool_diameter(problem):
    # past the largest pool distance every ball is the whole pool, so a D0
    # near the float limit must give the candidates of a modest D0, fast
    pool = list(problem.space.sample_set) + [x for _, x in problem.all_safe_points()]
    far = float(problem.space.dists(pool, pool).max())
    huge = _materialised(problem, 1e308)
    assert huge == _materialised(problem, 4 * far)
    assert huge == _scalar_candidate_balls(problem, 4 * far)


def _chain_fallback_centres(problem, d0):
    """Reference chain certificate, one scalar distance at a time: the pool
    index of each centre whose largest ball holds a safe point and more than
    one point with no step neighbour before it in (distance, index) order."""
    space = problem.space
    h = default_step(space)
    universe = problem.all_safe_points()
    pool = list(space.sample_set)
    safe = {x for _, x in universe}
    known = set(pool)
    pool += [x for x in dict.fromkeys(x for _, x in universe) if x not in known]
    step = space.resolution / 2
    radii = [step * i for i in range(1, int(math.floor(d0 / 2 / step + TOL)) + 1)]
    top = max(radii + [d0 / 2]) + TOL
    out = []
    for c, centre in enumerate(space.sample_set):
        ball = sorted((space.dist(centre, x), k) for k, x in enumerate(pool)
                      if space.dist(centre, x) <= top)
        if not any(pool[k] in safe for _, k in ball):
            continue
        lonely = [k for i, (_, k) in enumerate(ball)
                  if not any(space.dist(pool[k], pool[j]) <= h for _, j in ball[:i])]
        if len(lonely) != 1:
            out.append(c)
    return out


@pytest.mark.parametrize("make, fallbacks", [
    (_bridged_interval_union, 10),
    (_tie_break_instance, 0),
    (_slack_reach_instance, 0),
], ids=["bridged", "tie-break", "slack-reach"])
def test_union_find_runs_only_on_rows_without_the_chain_certificate(monkeypatch, make, fallbacks):
    p, d0 = make()
    fell_back = []
    union_find = coverings._prefix_components
    monkeypatch.setattr(coverings, "_prefix_components",
                        lambda near, nbrs: fell_back.append(near[0]) or union_find(near, nbrs))
    _candidate_balls(p, d0)
    assert len(fell_back) == fallbacks
    assert fell_back == _chain_fallback_centres(p, d0)


def test_bridged_union_rejects_a_new_mask_ball_only_for_chain_connectivity(monkeypatch):
    # the reference checks only balls with a new nonempty mask: one inside
    # the diameter bound but not chain-connected keeps this golden instance
    # on the union-find fallback
    p, d0 = _bridged_interval_union()
    disconnected, real = [], support_check

    def check(space, support, h):
        connected, diameter = real(space, support, h)
        if not connected and diameter <= d0 + TOL:
            disconnected.append(support)
        return connected, diameter

    monkeypatch.setitem(globals(), "support_check", check)
    _scalar_candidate_balls(p, d0)
    assert disconnected


def _short_bridge_union(data):
    """Two interval problems of 11-31 points bridged closer than D0/2."""
    sides = []
    gamma = data.draw(st.floats(0.02, 0.08))
    for _ in range(2):
        a = data.draw(st.floats(0.05, 0.75))
        sides.append(interval_union_problem([(a, a + data.draw(st.floats(0.0, 0.2)))], gamma,
                                            data.draw(st.integers(11, 31))))
    d0 = data.draw(st.floats(0.1, 1.2))
    return union_problem(*sides, data.draw(st.floats(0.01, 0.99)) * d0 / 2), d0


def _weighted_graph(data):
    """A small weighted graph with two one-point classes, as in
    ``_slack_reach_instance``."""
    n = data.draw(st.integers(2, 9))
    weight = st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0])
    edges = [(i, data.draw(st.integers(0, i - 1)), data.draw(weight)) for i in range(1, n)]
    edges += [(i, j, data.draw(weight))
              for i, j in data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                       st.integers(0, n - 1)), max_size=4))
              if i != j]
    x, y = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    regions = [ClassRegion(1, (BallPiece(x, 0.0),), [x]), ClassRegion(2, (BallPiece(y, 0.0),), [y])]
    p = MarginProblem(graph_space(edges), data.draw(st.floats(0.1, 2.0)), regions,
                      FamilyTag("graph", {}))
    return p, data.draw(st.floats(0.0, 12.0))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_candidate_balls_match_scalar_reference_on_unions_and_graphs(data):
    p, d0 = data.draw(st.sampled_from([_short_bridge_union, _weighted_graph]))(data)
    assert _materialised(p, d0) == _scalar_candidate_balls(p, d0)


def _small_windowed_problem(data):
    """A small bouquet, interval union or wedge, with D0 drawn from below
    its window (or below gamma) to above it."""
    kind = data.draw(st.sampled_from(["bouquet", "interval", "wedge"]))
    if kind == "bouquet":
        L = data.draw(st.floats(8.0, 12.0))
        gamma = data.draw(st.floats(L / 20, L / 10))
        p = bouquet_problem(data.draw(st.integers(1, 3)), L, gamma,
                            L / data.draw(st.integers(8, 20)))
        hi = parameter_window("bouquet", L=L, gamma=gamma).hi
    elif kind == "interval":
        a = data.draw(st.floats(0.05, 0.6))
        p = interval_union_problem([(a, a + data.draw(st.floats(0.0, 0.3)))],
                                   data.draw(st.floats(0.02, 0.1)), data.draw(st.integers(11, 31)))
        hi = 1.0
    else:
        p = wedge_problem(data.draw(st.integers(1, 2)), 1, 1.0, data.draw(st.floats(0.3, 1.0)),
                          n=data.draw(st.integers(16, 24)), seed=data.draw(st.integers(0, 99)))
        hi = parameter_window("wedge", R=1.0, gamma=p.gamma).hi
    return p, data.draw(st.floats(0.0, 1.2 * hi))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_candidate_balls_match_scalar_reference_across_the_window(data):
    p, d0 = _small_windowed_problem(data)
    assert _materialised(p, d0) == _scalar_candidate_balls(p, d0)


def _exact_cover_scan_oracle(full, masks):
    """The cover search that rescans ``rem`` for the least-covered element
    in every call; the relabelled search must choose exactly as it does."""
    cover_of = {e: [i for i, m in enumerate(masks) if (m >> e) & 1]
                for e in range(full.bit_length())}
    memo = {}

    def rec(rem):
        if rem == 0:
            return ()
        if rem in memo:
            return memo[rem]
        e, n_opts = -1, None
        r = rem
        while r:
            i = (r & -r).bit_length() - 1
            if n_opts is None or len(cover_of[i]) < n_opts:
                e, n_opts = i, len(cover_of[i])
            r &= r - 1
        best = None
        for ci in cover_of[e]:
            sub = rec(rem & ~masks[ci])
            if sub is not None and (best is None or len(sub) + 1 < len(best)):
                best = (ci,) + sub
        memo[rem] = best
        return best

    return sorted(rec(full))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exact_cover_matches_scan_oracle(data):
    n = data.draw(st.integers(1, 14))
    full = (1 << n) - 1
    # sparse masks and repeated masks make many elements tie on cover count,
    # and give several minimum covers, so the tie-break decides which is chosen
    sparse = st.lists(st.integers(0, n - 1), min_size=1, max_size=3).map(
        lambda bits: sum({1 << b for b in bits}))
    masks = data.draw(st.lists(st.one_of(sparse, st.integers(1, full)), min_size=1, max_size=14))
    masks += data.draw(st.lists(st.sampled_from(masks), max_size=3))
    if data.draw(st.booleans()):
        full = data.draw(st.integers(1, full))  # a universe with holes
    covered = 0
    for m in masks:
        covered |= m
    if full & ~covered:
        masks.insert(data.draw(st.integers(0, len(masks))), full & ~covered)
    assert _exact_cover(full, masks) == _exact_cover_scan_oracle(full, masks)


def _reach(n, masks):
    """Each element's own bit ORed with every mask that holds it."""
    return [reduce(or_, (m for m in masks if (m >> e) & 1), 1 << e) for e in range(n)]


def _block_family(data, whole_groups=False):
    """(n, groups, masks): n <= 16 elements dealt into groups, every mask
    inside one group, as the safe samples of separated classes are, with
    repeated masks; every element is covered, and with ``whole_groups``
    each group's own mask is among the masks."""
    n = data.draw(st.integers(1, 16))
    group_of = data.draw(st.lists(st.integers(0, data.draw(st.integers(0, n - 1))),
                                  min_size=n, max_size=n))
    groups = [[e for e in range(n) if group_of[e] == g] for g in sorted(set(group_of))]
    inside = st.sampled_from(groups).flatmap(
        lambda grp: st.sets(st.sampled_from(grp), min_size=1).map(lambda es: sum(1 << e for e in es)))
    masks = data.draw(st.lists(inside, min_size=1, max_size=16))
    masks += data.draw(st.lists(st.sampled_from(masks), max_size=4))
    covered = reduce(or_, masks)
    for grp in groups:
        whole = sum(1 << e for e in grp)
        if whole_groups or whole & ~covered:
            masks.insert(data.draw(st.integers(0, len(masks))),
                         whole if whole_groups else whole & ~covered)
    return n, groups, masks


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exact_cover_matches_scan_oracle_on_block_families(data):
    # one class's safe samples never share a ball with another's, so the
    # packing bound is exact wherever each group holds its whole mask
    n, _, masks = _block_family(data, whole_groups=data.draw(st.booleans()))
    full = (1 << n) - 1
    if data.draw(st.booleans()):
        full = data.draw(st.integers(1, full))  # a universe with holes
    assert _exact_cover(full, masks) == _exact_cover_scan_oracle(full, masks)


def test_exact_cover_matches_scan_oracle_on_a_w6_bouquet():
    # a w = 6 instance of the cover_search benchmark (seed 1): the unpruned
    # search memoizes 9,556 uncovered masks, the bounded one 13
    p = bouquet_problem(6, 9.076649728341469, 0.6915098795078244, 0.31420133914878506)
    universe, _, candidates = _candidate_balls(p, 3.0196237704895514)
    full, masks = (1 << len(universe)) - 1, [m for m, _, _ in candidates]
    assert (len(universe), len(masks)) == (24, 54)
    chosen = _exact_cover(full, masks)
    assert chosen == _exact_cover_scan_oracle(full, masks) == [3, 12, 21, 30, 39, 48]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_packing_bound_is_at_most_the_minimum_cover(data):
    n = data.draw(st.integers(1, 10))
    masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=8))
    covered = reduce(or_, masks)
    rem = data.draw(st.integers(0, covered)) & covered
    least = next(size for size in range(len(masks) + 1)
                 for combo in itertools.combinations(masks, size)
                 if rem & ~reduce(or_, combo, 0) == 0)
    assert _packing_bound(rem, _reach(n, masks)) <= least


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_packing_bound_counts_the_groups_on_block_families(data):
    n, groups, masks = _block_family(data, whole_groups=True)
    rem = data.draw(st.integers(0, (1 << n) - 1))
    touched = sum(1 for grp in groups if any((rem >> e) & 1 for e in grp))
    assert _packing_bound(rem, _reach(n, masks)) == touched
