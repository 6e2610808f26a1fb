"""Nerves, F2 Betti numbers, systole, and the adjacency-bound check."""

import math
import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urwidth.coverings import UrysohnCovering, UrysohnTriple, canonical_covering
from urwidth.problems import bouquet_problem
from urwidth.spaces import bouquet_space, graph_space
from urwidth.topology import (
    betti,
    betti_bound_check,
    cyclic_arc_cover,
    max_adjacency,
    nerve,
    systole,
)

from graph_oracles import graph_beta1, vertex_star_cover


def _naive_f2_rank(rows, width):
    """Independent O(n^3) elimination over explicit 0/1 lists."""
    mat = [[(r >> c) & 1 for c in range(width)] for r in rows]
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _d2_oracle(cx):
    """Columns of d2 (triangles -> edges), bit-packed, built independently."""
    eindex = {tuple(sorted(e)): i for i, e in enumerate(cx.edges)}
    d2 = []
    for a, b, c in cx.triangles:
        col = 0
        for face in ((a, b), (a, c), (b, c)):
            col |= 1 << eindex[tuple(sorted(face))]
        d2.append(col)
    return d2


def _betti_oracle(cx):
    """Recompute (beta0, beta1) with the naive elimination."""
    vindex = {v: i for i, v in enumerate(cx.vertices)}
    d1 = [(1 << vindex[a]) | (1 << vindex[b]) for a, b in cx.edges]
    r1 = _naive_f2_rank(d1, len(cx.vertices))
    r2 = _naive_f2_rank(_d2_oracle(cx), max(1, len(cx.edges)))
    return len(cx.vertices) - r1, len(cx.edges) - r1 - r2


def test_nerve_of_canonical_covering_is_discrete():
    p = bouquet_problem(3, 10.0, 1.0, 0.25)
    cov = canonical_covering(p, 4.0)
    cx = nerve(cov)
    assert len(cx.vertices) == 3
    assert cx.edges == []
    assert betti(cx) == (3, 0)


def test_nerve_of_cyclic_cover_single_loop():
    spc = bouquet_space(1, 12.0, 0.25)
    cov = cyclic_arc_cover(spc, 6)
    cx = nerve(cov)
    assert len(cx.vertices) == 6
    assert len(cx.edges) == 6
    assert cx.triangles == []
    assert betti(cx) == (1, 1)  # matches the circle
    assert max_adjacency(cx) == 2


def test_nerve_triangle_from_three_way_overlap():
    spc = bouquet_space(1, 12.0, 0.25)
    arc = lambda lo, hi: [p for p in spc.sample_set if lo <= p.s <= hi]
    triples = [
        UrysohnTriple(arc(1.0, 4.0), (1,), {p: 1 for p in arc(1.0, 4.0)}),
        UrysohnTriple(arc(3.0, 6.0), (1,), {p: 1 for p in arc(3.0, 6.0)}),
        UrysohnTriple(arc(3.5, 8.0), (1,), {p: 1 for p in arc(3.5, 8.0)}),
    ]
    cx = nerve(UrysohnCovering(triples, 7.0, 0.5))
    assert len(cx.triangles) == 1
    assert betti(cx) == (1, 0)  # the filled triangle kills the cycle


def _nerve_oracle(cov):
    """Brute-force nerve: scan every pair and every trio of supports."""
    sets = [set(t.support) for t in cov.triples]
    edges = [(i, j) for i, j in combinations(range(len(sets)), 2) if sets[i] & sets[j]]
    tris = [(i, j, k) for i, j, k in combinations(range(len(sets)), 3)
            if sets[i] & sets[j] & sets[k]]
    return edges, tris


# a ground set of eight points: supports overlap heavily, may be empty and
# may list a point twice
@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 7), max_size=10), max_size=9))
def test_nerve_matches_pair_and_trio_scan(supports):
    cov = UrysohnCovering([UrysohnTriple(s, (1,), {x: 1 for x in s}) for s in supports], 1.0, 0.5)
    cx = nerve(cov)
    assert cx.vertices == list(range(len(supports)))
    assert (cx.edges, cx.triangles) == _nerve_oracle(cov)


def test_nerve_of_512_patch_cover():
    cx = nerve(cyclic_arc_cover(bouquet_space(64, 12.0, 0.25), 8))
    assert len(cx.vertices) == 512
    assert betti(cx) == (64, 64)
    assert max_adjacency(cx) == 2


def test_betti_matches_naive_oracle_on_random_complexes():
    rnd = random.Random(17)
    for _ in range(30):
        n = rnd.randint(3, 8)
        edges = [e for e in combinations(range(n), 2) if rnd.random() < 0.4]
        edge_set = set(edges)
        tris = [
            t
            for t in combinations(range(n), 3)
            if rnd.random() < 0.3
            and all(tuple(sorted(pair)) in edge_set for pair in combinations(t, 2))
        ]
        from urwidth.topology import SimplicialComplex

        cx = SimplicialComplex(list(range(n)), edges, tris)
        assert betti(cx) == _betti_oracle(cx)


def test_euler_characteristic_consistency():
    rnd = random.Random(19)
    from urwidth.topology import SimplicialComplex

    for _ in range(30):
        n = rnd.randint(3, 9)
        edges = [e for e in combinations(range(n), 2) if rnd.random() < 0.5]
        edge_set = set(edges)
        tris = [
            t
            for t in combinations(range(n), 3)
            if rnd.random() < 0.4
            and all(tuple(sorted(pair)) in edge_set for pair in combinations(t, 2))
        ]
        cx = SimplicialComplex(list(range(n)), edges, tris)
        b0, b1 = betti(cx)
        # b2 = dim ker d2, the top homology of the truncated complex
        b2 = len(cx.triangles) - _naive_f2_rank(_d2_oracle(cx), max(1, len(cx.edges)))
        chi = len(cx.vertices) - len(cx.edges) + len(cx.triangles)
        assert chi == b0 - b1 + b2


def test_max_adjacency_star():
    from urwidth.topology import SimplicialComplex

    star = SimplicialComplex(list(range(6)), [(0, i) for i in range(1, 6)], [])
    assert max_adjacency(star) == 5


def test_betti_bound_check_cases():
    ok = betti_bound_check(6, 1, 2)
    assert ok.passed and ok.bound == 1.0 and ok.slack == 5.0
    ok3 = betti_bound_check(18, 3, 2)
    assert ok3.passed and ok3.bound == 3.0
    bad = betti_bound_check(2, 3, 2)
    assert not bad.passed
    vac = betti_bound_check(4, 0, 0)
    assert vac.passed
    degen = betti_bound_check(4, 2, 0)
    assert not degen.passed


def test_graph_beta1_values():
    k4 = graph_space([(u, v) for u, v in combinations(range(4), 2)])
    assert graph_beta1(k4) == 3
    tree = graph_space([(0, 1), (1, 2), (1, 3)])
    assert graph_beta1(tree) == 0
    two_tris = nx.Graph()
    two_tris.add_edges_from([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert graph_beta1(two_tris) == 2


def test_graph_beta1_agrees_with_star_cover_homology():
    rnd = random.Random(29)
    trials = 0
    while trials < 100:
        n = rnd.randint(3, 12)
        p = rnd.uniform(0.2, 0.7)
        g = nx.gnp_random_graph(n, p, seed=rnd.randint(0, 10**6))
        if not nx.is_connected(g) or g.number_of_edges() == 0:
            continue
        trials += 1
        gs = graph_space(list(g.edges))
        cx = nerve(vertex_star_cover(gs))
        b0, b1 = betti(cx)
        assert (b0, b1) == (1, graph_beta1(gs))


def test_systole_values():
    assert systole(bouquet_space(2, 10.0, 0.5)) == 10.0
    tri = graph_space([(0, 1), (1, 2), (2, 0)])
    assert systole(tri) == pytest.approx(3.0)
    two_cycles = graph_space(
        [(0, 1), (1, 2), (2, 3), (3, 0), ("a", "b"), ("b", "c"), ("c", "d"),
         ("d", "e"), ("e", "f"), ("f", "a"), ("a", 0, 1e-9)]
    )
    # cycles of length 4 and ~7 sharing (almost) a vertex
    assert systole(two_cycles) == pytest.approx(4.0, abs=1e-6)
    tree = graph_space([(0, 1), (1, 2)])
    assert systole(tree) == math.inf


def test_systole_leaves_the_space_untouched():
    gs = graph_space([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])
    adjacency = {u: list(gs.graph[u]) for u in gs.graph}
    supports = [t.support for t in vertex_star_cover(gs).triples]
    assert systole(gs) == 3.0
    assert {u: list(gs.graph[u]) for u in gs.graph} == adjacency
    assert [t.support for t in vertex_star_cover(gs).triples] == supports


def _girth_oracle(g):
    """Independent oracle: enumerate simple cycles, take the min weight."""
    best = math.inf
    for cyc in nx.simple_cycles(g):
        if len(cyc) < 3:
            continue
        weight = sum(
            g[u][v]["weight"] for u, v in zip(cyc, cyc[1:] + cyc[:1])
        )
        best = min(best, weight)
    return best


def test_systole_matches_cycle_enumeration_oracle():
    rnd = random.Random(37)
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
        assert systole(gs) == pytest.approx(_girth_oracle(g))


def test_cyclic_cover_on_three_loops():
    spc = bouquet_space(3, 12.0, 0.25)
    cov = cyclic_arc_cover(spc, 6)
    cx = nerve(cov)
    assert len(cx.vertices) == 18
    b0, b1 = betti(cx)
    assert (b0, b1) == (3, 3)
    assert max_adjacency(cx) == 2
    chk = betti_bound_check(len(cov.triples), b1, max_adjacency(cx))
    assert chk.passed


@pytest.mark.parametrize("w,arcs", [(1, 4), (2, 6), (3, 6), (2, 8)])
def test_adjacency_bound_chain(w, arcs):
    # beta1(space) <= beta1(nerve) <= |edges| <= Delta0 * N / 2 (handshake)
    spc = bouquet_space(w, 12.0, 0.25)
    cov = cyclic_arc_cover(spc, arcs)
    cx = nerve(cov)
    _, b1_nerve = betti(cx)
    delta0 = max_adjacency(cx)
    n = len(cov.triples)
    beta1_space = w  # loops are independent cycles
    assert beta1_space <= b1_nerve <= len(cx.edges) <= delta0 * n / 2

