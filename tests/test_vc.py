"""Brute-force VC dimension and the separation report."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urwidth.vc import (
    HypothesisTable,
    intervals_class,
    patchwise_class,
    separation_report,
    vc_dimension,
)


def test_single_constant_hypothesis_has_vc_zero():
    t = HypothesisTable([0, 1, 2], [(1, 1, 1)])
    assert vc_dimension(t) == 0


def test_thresholds_on_a_line_have_vc_one():
    ground = list(range(10))
    hyps = [tuple(1 if i >= k else 0 for i in ground) for k in range(11)]
    assert vc_dimension(HypothesisTable(ground, hyps)) == 1


def test_full_shatter_of_four_points():
    ground = list(range(4))
    hyps = [tuple((m >> i) & 1 for i in ground) for m in range(16)]
    assert vc_dimension(HypothesisTable(ground, hyps)) == 4


def test_table_validation():
    with pytest.raises(ValueError):
        HypothesisTable(list(range(23)), [tuple([0] * 23)])
    with pytest.raises(ValueError):
        HypothesisTable([0, 1], [(0, 1, 0)])
    t = HypothesisTable([0, 1], [(0, 1), (0, 1), (1, 1)])
    assert len(t.hypotheses) == 2  # deduplicated


def test_multiclass_table_directed_to_bound_path():
    t = HypothesisTable([0, 1], [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match="bound"):
        vc_dimension(t)


def _shattered_oracle(table, subset):
    """Direct pattern-set oracle, no bitmask machinery."""
    pats = {tuple(h[i] for i in subset) for h in table.hypotheses}
    return len(pats) == 2 ** len(subset)


def _vc_exhaustive_oracle(table):
    n = len(table.ground)
    best = 0
    for m in range(1, n + 1):
        if any(_shattered_oracle(table, s) for s in combinations(range(n), m)):
            best = m
    return best


def _vc_restart_oracle(table, rnd, restarts=200):
    """Randomized greedy restarts: grow a shattered set in random order."""
    n = len(table.ground)
    best = 0
    for _ in range(restarts):
        order = rnd.sample(range(n), n)
        cur: list[int] = []
        for j in order:
            if _shattered_oracle(table, tuple(sorted(cur + [j]))):
                cur.append(j)
        best = max(best, len(cur))
    return best


def test_vc_agrees_with_oracles_on_random_tables():
    rnd = random.Random(41)
    for _ in range(50):
        n = rnd.randint(2, 8)
        m = rnd.randint(1, 64)
        hyps = [tuple(rnd.randint(0, 1) for _ in range(n)) for _ in range(m)]
        t = HypothesisTable(list(range(n)), hyps)
        exact = vc_dimension(t)
        assert exact == _vc_exhaustive_oracle(t)
        assert exact == _vc_restart_oracle(t, rnd)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_vc_matches_exhaustive_oracle(data):
    n = data.draw(st.integers(1, 10))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    hyps = data.draw(st.lists(row, min_size=1, max_size=200))
    t = HypothesisTable(list(range(n)), hyps)
    assert vc_dimension(t) == _vc_exhaustive_oracle(t)


def test_vc_monotone_under_hypothesis_inclusion():
    rnd = random.Random(43)
    for _ in range(20):
        n = rnd.randint(2, 7)
        m = rnd.randint(4, 40)
        hyps = [tuple(rnd.randint(0, 1) for _ in range(n)) for _ in range(m)]
        sub = rnd.sample(hyps, rnd.randint(1, len(hyps)))
        big = HypothesisTable(list(range(n)), hyps)
        small = HypothesisTable(list(range(n)), sub)
        assert vc_dimension(small) <= vc_dimension(big)


@pytest.mark.parametrize("n,grid,expect", [(1, 12, 2), (2, 16, 4), (3, 16, 6), (2, 22, 4)])
def test_intervals_class_vc(n, grid, expect):
    assert vc_dimension(intervals_class(n, grid)) == expect


def test_intervals_class_rejects_small_grid():
    with pytest.raises(ValueError):
        intervals_class(2, 8)


def test_intervals_class_cardinality():
    t = intervals_class(1, 12)
    assert len(t.hypotheses) == 1 + math.comb(13, 2)


def test_patchwise_class_enumeration():
    pw = patchwise_class(3)
    assert pw.cardinality == 27
    assert pw.log2_bound == pytest.approx(3 * math.log2(3))
    # every subset of the 3 arcs is one label's indicator under some assignment
    assert len(pw.one_vs_rest.hypotheses) == 2**3


def test_patchwise_class_degenerate():
    pw = patchwise_class(1)
    assert pw.cardinality == 1
    assert pw.log2_bound == 0.0
    assert vc_dimension(pw.one_vs_rest) == 0


def test_patchwise_one_vs_rest_shatters_representatives():
    pw = patchwise_class(3)
    assert vc_dimension(pw.one_vs_rest) == 3
    assert vc_dimension(patchwise_class(6).one_vs_rest) == 6


def test_patchwise_large_w_reports_bound_only():
    pw = patchwise_class(8)
    assert pw.one_vs_rest is None
    assert pw.cardinality == 8**8
    assert pw.log2_bound == pytest.approx(24.0)


def test_separation_report_small():
    rep = separation_report(w=5, n=1)
    loops = rep.rows[0]
    assert (loops["width_lb"], loops["width_ub"]) == (5, 5)
    assert loops["vc_bound"] == pytest.approx(5 * math.log2(5))
    ivl = rep.rows[1]
    assert (ivl["width_lb"], ivl["width_ub"]) == (1, 1)
    assert ivl["vc"] == 2
    assert "loops" in rep.as_text()


def test_separation_report_degenerate_row():
    rep = separation_report(w=1, n=1)
    loops, ivl = rep.rows
    assert (loops["width_lb"], loops["width_ub"]) == (1, 1)
    assert loops["vc_bound"] == 0.0
    assert (ivl["width_lb"], ivl["width_ub"], ivl["vc"]) == (1, 1, 2)
