"""Acceptance suite: one test per exit criterion, one pass/fail line each.

Every criterion is asserted at its stated tolerance (exact integers for
certificates, fixed bands for Monte-Carlo statistics) and against its
runtime budget.  Run with ``pytest -s tests/test_acceptance.py`` to see
the per-criterion lines.
"""

import math
import random
import time
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

from urwidth.coverings import (
    min_ball_cover,
    separation_certificate,
    verify_covering,
    width_bracket,
)
from urwidth.machine import machine_new, replay_log, run_stream
from urwidth.problems import (
    bouquet_problem,
    parameter_window,
    scaled_problem,
    union_problem,
    wedge_problem,
)
from urwidth.sampling import (
    coupon_stats,
    permutation_learner_experiment,
    regress,
    sample_safe,
    sampling_distribution,
    threshold_sweep,
)
from urwidth.spaces import bouquet_space, graph_space
from urwidth.topology import (
    betti,
    betti_bound_check,
    cyclic_arc_cover,
    max_adjacency,
    nerve,
    systole,
)
from urwidth.vc import separation_report

from graph_oracles import graph_beta1, vertex_star_cover


def _criterion(num: int, passed: bool, detail: str, elapsed: float, budget: float):
    mark = "PASS" if passed and elapsed <= budget else "FAIL"
    print(f"criterion {num:2d} [{mark}] {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert passed, f"criterion {num}: {detail}"
    assert elapsed <= budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_hierarchy():
    start = time.time()
    window = parameter_window("bouquet", L=10.0, gamma=1.0)
    ok = (window.lo, window.hi) == (1.5, 4.25) and window.contains(4.0)
    brackets = {}
    for w in range(1, 7):
        p = bouquet_problem(w, 10.0, 1.0, 0.5)
        br = width_bracket(p, 4.0)
        brackets[w] = (br.lb, br.ub)
        ok = ok and (br.lb, br.ub) == (w, w) and br.exact and br.report.passed
    # exact solver proves no (w-1)-ball cover exists for w = 2, 3, 4
    for w in (2, 3, 4):
        p = bouquet_problem(w, 10.0, 1.0, 0.5)
        _, info = min_ball_cover(p, 4.0)
        ok = ok and info.method == "exact-dp" and info.size == w
    _criterion(1, ok, f"hierarchy brackets {brackets}", time.time() - start, 30.0)


def test_criterion_2_scaling_law():
    start = time.time()
    p = scaled_problem(2, 3, 60.0, 1.0, 0.5)
    br = width_bracket(p, 4.0)
    ok = (br.lb, br.ub) == (6, 6) and br.exact
    ok = ok and verify_covering(p, br.covering).passed and br.covering.size == 6
    _criterion(2, ok, f"scaled bracket ({br.lb}, {br.ub}) = (6, 6)",
               time.time() - start, 10.0)


def test_criterion_3_wedge_hierarchy():
    start = time.time()
    window = parameter_window("wedge", R=2.0, gamma=1.0)
    ok = window.contains(3.0)
    results = {}
    for w in (1, 2, 3):
        p = wedge_problem(w, 2, 2.0, 1.0, n=200, seed=0)
        br = width_bracket(p, 3.0)
        results[w] = (br.lb, br.ub)
        ok = ok and (br.lb, br.ub) == (w, w) and br.exact
    _criterion(3, ok, f"wedge brackets {results}", time.time() - start, 30.0)


def test_criterion_4_additivity():
    start = time.time()
    a = bouquet_problem(2, 10.0, 1.0, 0.5)
    b = bouquet_problem(3, 10.0, 1.0, 0.5)
    u = union_problem(a, b, 100.0)
    br_a, br_b, br_u = (width_bracket(q, 4.0) for q in (a, b, u))
    ok = (br_a.lb, br_a.ub) == (2, 2) and (br_b.lb, br_b.ub) == (3, 3)
    ok = ok and (br_u.lb, br_u.ub) == (5, 5)
    ok = ok and (br_u.lb, br_u.ub) == (br_a.lb + br_b.lb, br_a.ub + br_b.ub)
    _criterion(4, ok, f"union bracket ({br_u.lb}, {br_u.ub}) = (2,2) + (3,3)",
               time.time() - start, 10.0)


def test_criterion_5_margin_monotonicity():
    start = time.time()
    rnd = random.Random(51)
    violations = 0
    for _ in range(50):
        w = rnd.randint(1, 4)
        L = rnd.uniform(8.0, 16.0)
        gamma = rnd.uniform(0.2, L / 10 * 0.95)
        h = L / rnd.randint(20, 28)
        lo, hi = 1.5 * gamma, L / 2 - 0.75 * gamma
        d0 = rnd.uniform(lo, hi * 0.999)
        big = bouquet_problem(w, L, gamma, h)
        small = bouquet_problem(w, L, gamma / 2, h)
        # same space, same default candidate family for both margins
        lb_big = separation_certificate(big, d0).lb
        lb_small = separation_certificate(small, d0).lb
        _, ub_big = min_ball_cover(big, d0)
        _, ub_small = min_ball_cover(small, d0)
        if ub_small.size > ub_big.size or lb_small > lb_big:
            violations += 1
    _criterion(5, violations == 0,
               f"margin monotonicity violations: {violations}/50",
               time.time() - start, 60.0)


def test_criterion_6_vc_separation():
    start = time.time()
    rep = separation_report(w=5, n=3)
    loops = rep.rows[0]
    ok = (loops["width_lb"], loops["width_ub"]) == (5, 5)
    ok = ok and abs(loops["vc_bound"] - 5 * math.log2(5)) < 1e-9
    for row in rep.rows[1:]:
        n = int(row["instance"].split("=")[1])
        ok = ok and (row["width_lb"], row["width_ub"]) == (1, 1)
        ok = ok and row["vc"] == 2 * n
    _criterion(6, ok,
               "width (5,5) vs bound 11.61; interval widths (1,1) vs VC 2n, n=1..3",
               time.time() - start, 300.0)


def test_criterion_7_sample_complexity():
    start = time.time()
    ws = (4, 8, 16, 32, 64)
    problems = {w: bouquet_problem(w, 10.0, 1.0, 0.5) for w in ws}
    rows = coupon_stats(problems, trials=10_000, seed=7)
    # (a) Monte-Carlo means against the analytic coupon-collector law w*H_w;
    # the slope against the leading term w*ln(w) alone is also reported
    slope, _, r2 = regress([r.analytic_mean for r in rows], [r.mean for r in rows])
    slope_lead, _, _ = regress(
        [r.w * math.log(r.w) for r in rows], [r.mean for r in rows]
    )
    ok_a = 0.95 <= slope <= 1.05 and r2 >= 0.99
    # (b) permutation learner at half the coupon budget
    rng = np.random.default_rng(17)
    n_half = math.ceil(0.5 * 32 * math.log(32))
    res = permutation_learner_experiment(32, n_half, 2000, rng)
    ok_b = n_half == 56 and res.wilson_hi < 2.0 / 3.0
    # (c) success decomposition at every grid point: the one-missed case is
    # forced-correct, the multi-missed cases win at most half their trials
    stats = threshold_sweep([32], [0.6, 0.8, 1.0, 1.2, 1.4, 1.6], 2000, seed=23)
    ok_c = True
    for r in stats.rows:
        slack = 3 * math.sqrt(max(r.p_multi_missed * r.trials, 1) * 0.25) / r.trials
        bound = r.p_all_seen + r.p_one_missed + 0.5 * r.p_multi_missed
        ok_c = ok_c and r.rate <= bound + slack
    detail = (f"slope vs law {slope:.3f} (R2 {r2:.4f}; vs w ln w {slope_lead:.3f}), "
              f"success@56 Wilson hi {res.wilson_hi:.3f}, decomposition ok {ok_c}")
    _criterion(7, ok_a and ok_b and ok_c, detail, time.time() - start, 120.0)


def test_criterion_8_nerve_betti():
    start = time.time()
    space = bouquet_space(3, 12.0, 0.25)
    cov = cyclic_arc_cover(space, 6)
    cx = nerve(cov)
    b0, b1 = betti(cx)
    delta0 = max_adjacency(cx)
    check = betti_bound_check(len(cov.triples), 3, delta0)  # the space's beta1
    ok = b1 == 3 and delta0 == 2 and len(cov.triples) == 18 and check.passed
    rnd = random.Random(61)
    done = 0
    while done < 100:
        n = rnd.randint(3, 12)
        g = nx.gnp_random_graph(n, rnd.uniform(0.25, 0.7), seed=rnd.randint(0, 10**6))
        if not nx.is_connected(g) or g.number_of_edges() == 0:
            continue
        done += 1
        gs = graph_space(list(g.edges))
        nb0, nb1 = betti(nerve(vertex_star_cover(gs)))
        ok = ok and (nb0, nb1) == (1, graph_beta1(gs))
    _criterion(8, ok, f"nerve beta1={b1}, Delta0={delta0}, N=18; 100 graph cross-checks",
               time.time() - start, 30.0)


def test_criterion_9_systole():
    start = time.time()
    ok = systole(bouquet_space(3, 10.0, 0.5)) == 10.0
    rnd = random.Random(71)
    done = 0
    while done < 50:
        n = rnd.randint(3, 8)
        g = nx.gnp_random_graph(n, 0.5, seed=rnd.randint(0, 10**6))
        if not nx.is_connected(g) or g.number_of_edges() < n:
            continue
        for u, v in g.edges:
            g[u][v]["weight"] = round(rnd.uniform(0.5, 3.0), 3)
        done += 1
        gs = graph_space([(u, v, g[u][v]["weight"]) for u, v in g.edges])
        oracle = min(
            (
                sum(g[u][v]["weight"] for u, v in zip(cyc, cyc[1:] + cyc[:1]))
                for cyc in nx.simple_cycles(g)
                if len(cyc) >= 3
            ),
            default=math.inf,
        )
        ok = ok and abs(systole(gs) - oracle) < 1e-9
    _criterion(9, ok, "bouquet systole 10; 50 weighted-girth oracle agreements",
               time.time() - start, 10.0)


def test_criterion_10_machine():
    start = time.time()
    p = bouquet_problem(3, 10.0, 1.0, 0.25)
    dist = sampling_distribution(p)
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        stream = [sample_safe(dist, rng) for _ in range(60)]
        if {lab for _, lab in stream} != {1, 2, 3}:
            ok = False  # premise: every region visited
            continue
        state = machine_new(p.space, 0.0, 4.0, 2.0, labels=(1, 2, 3))
        trace = run_stream(state, stream)
        ok = ok and state.library_size == 3 and trace.errors == 0
        rebuilt = replay_log(p.space, 0.0, 4.0, 2.0, state.log)
        ok = ok and rebuilt.entries == state.entries
    _criterion(10, ok, "100 seeded streams: library size 3, zero errors, replay exact",
               time.time() - start, 30.0)
