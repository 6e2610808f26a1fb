"""Metric kernel: distances, sampling, and the metric axioms."""

import hashlib
import math
import random
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urwidth.problems import wedge_problem
from urwidth.spaces import (
    BLOCK,
    MAX_SAMPLES,
    MAX_SPHERE_SAMPLES,
    BouquetPoint,
    bouquet_space,
    disjoint_union,
    graph_space,
    interval_space,
    support_check,
    wedge_sphere_space,
)


def _diameter(space, pts):
    """Diameter from ``support_check``; any positive step gives it."""
    return support_check(space, pts, 1.0)[1]


def test_bouquet_same_loop_arc_arithmetic():
    sp = bouquet_space(2, 10.0, 0.5)
    assert sp.dist(sp.point(1, 2.0), sp.point(1, 9.0)) == pytest.approx(3.0)


def test_bouquet_cross_loop_through_wedge():
    sp = bouquet_space(2, 10.0, 0.5)
    assert sp.dist(sp.point(1, 2.0), sp.point(2, 3.0)) == pytest.approx(5.0)


def test_bouquet_antipodes_at_full_loop_length():
    sp = bouquet_space(3, 10.0, 0.5)
    assert sp.dist(sp.antipode(1), sp.antipode(2)) == pytest.approx(10.0)


def test_bouquet_sampling_includes_shared_wedge_point():
    sp = bouquet_space(3, 10.0, 0.5)
    assert sp.sample_set.count(sp.wedge_point) == 1
    # ceil(L/h) points per loop, wedge point shared
    assert len(sp.sample_set) == 1 + 3 * (sp.n_per_loop - 1)


# sha256 of repr(sample_set) that the point-by-point build (i * resolution
# per point) gave; the array build must reproduce it bit for bit
_BOUQUET_SAMPLE_DIGESTS = {
    (1, 10.0, 0.1): "e2ab65eae839d7d4e8f8f2795d82cf8d85f70af45320facef4b2abca3994efde",
    (3, 10.0, 0.5): "010ab204979093f36fbb6d4f7ffd151ac533c7430ae2853abc7399045540ba94",
    (5, 13.7, 0.3): "e4ecb44684f3ba35f090677f039fa1eed3a7e356563bfe4a981421747a412722",
    (16, 10.0, 0.05): "a59805cb3d8478df88056af9276ea496e7eb6c2492d27b9ec8fae579a5e8de86",
    (7, 9.3, 0.0123): "25efaae96cd0c4ac5e6d0f9afb1b9eac4ebe2bfc8bc9519fc2b64d3ee41b3db3",
}


@pytest.mark.parametrize("w, L, h", sorted(_BOUQUET_SAMPLE_DIGESTS))
def test_bouquet_sample_set_pinned(w, L, h):
    sp = bouquet_space(w, L, h)
    assert hashlib.sha256(repr(sp.sample_set).encode()).hexdigest() == \
        _BOUQUET_SAMPLE_DIGESTS[(w, L, h)]
    assert all(type(p) is BouquetPoint for p in sp.sample_set)
    # the cached arrays equal the ones built from the points themselves
    cached, built = sp._coords(sp.sample_set), sp._coords(list(sp.sample_set))
    for a, b in zip(cached, built):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_bouquet_rejects_bad_parameters():
    with pytest.raises(ValueError):
        bouquet_space(2, 10.0, 2.0)  # h > L/8
    with pytest.raises(ValueError):
        bouquet_space(2, -1.0, 0.1)
    with pytest.raises(ValueError):
        bouquet_space(0, 10.0, 0.5)


def test_wedge_pole_to_antipode():
    sp = wedge_sphere_space(1, 2, 2.0, n=16, seed=1)
    assert sp.dist(sp.pole, sp.antipode(1)) == pytest.approx(2 * math.pi)


def test_wedge_cross_sphere_antipodes():
    sp = wedge_sphere_space(2, 2, 2.0, n=16, seed=1)
    assert sp.dist(sp.antipode(1), sp.antipode(2)) == pytest.approx(4 * math.pi)


def test_wedge_circle_matches_bouquet_metric():
    # k=1 sphere of radius L/(2*pi) is a circle of circumference L: the two
    # constructors must agree on matched points.
    L = 10.0
    bq = bouquet_space(2, L, 0.5)
    ws = wedge_sphere_space(2, 1, L / (2 * math.pi), n=16, seed=3)

    def embed(p):
        if p == bq.wedge_point:
            return ws.pole
        theta = 2 * math.pi * p.s / L
        return ws.point(p.loop, (math.cos(theta), math.sin(theta)))

    rnd = random.Random(7)
    for _ in range(200):
        p = rnd.choice(bq.sample_set)
        q = rnd.choice(bq.sample_set)
        assert ws.dist(embed(p), embed(q)) == pytest.approx(bq.dist(p, q), abs=1e-9)


def test_wedge_rejects_degenerate_direction():
    sp = wedge_sphere_space(1, 2, 1.0, n=16, seed=0)
    for u in [(0.5, 0.5, 0.5), (math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0)]:
        with pytest.raises(ValueError, match="unit length"):
            sp.point(1, u)


def _fill_resolution_oracle(sp):
    # the all-pairs loop: max over the samples of each sphere (pole
    # included) of the distance to the nearest sample q != p
    worst = 0.0
    for sphere in range(1, sp.w + 1):
        group = [p for p in sp.sample_set if p.sphere in (0, sphere)]
        for p in group:
            worst = max(worst, min(sp.dist(p, q) for q in group if q != p))
    return worst


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 5, 11])
def test_wedge_resolution_equals_all_pairs_loop(k, seed):
    sp = wedge_sphere_space(1 + seed % 3, k, 1.7, n=70 + 40 * k, seed=seed)
    assert sp.resolution.hex() == _fill_resolution_oracle(sp).hex()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(16, 48), st.integers(0, 2**63),
       st.floats(0.1, 10.0))
def test_wedge_resolution_equals_all_pairs_loop_on_small_wedges(w, k, n, seed, R):
    sp = wedge_sphere_space(w, k, R, n=n, seed=seed)
    assert sp.resolution.hex() == _fill_resolution_oracle(sp).hex()


def _refill(sp):
    # ``_fill_resolution`` again, over the sample set as it stands now
    return sp._fill_resolution(np.array([p.u for p in sp.sample_set]),
                               np.array([p.sphere for p in sp.sample_set]))


@pytest.mark.parametrize("copied", ["pole", "worst"])
def test_wedge_resolution_skips_every_copy_of_a_duplicated_sample(copied):
    sp = wedge_sphere_space(2, 2, 2.0, n=16, seed=1)
    if copied == "pole":  # the pole now appears twice in each group
        sp.sample_set.append(sp.pole)
    else:  # a copy of the sample farthest from its neighbours
        sp.sample_set.append(max(
            sp.sample_set[1:],
            key=lambda p: min(sp.dist(p, q) for q in sp.sample_set
                              if q != p and q.sphere in (0, p.sphere))))
    got = _refill(sp)
    assert got.hex() == _fill_resolution_oracle(sp).hex() == sp.resolution.hex()


def _turned(u, t):
    """The unit vector at angle ``t`` from ``u``, towards the axis ``u`` is least along."""
    m = min(range(len(u)), key=lambda i: abs(u[i]))
    w = [(i == m) - u[m] * x for i, x in enumerate(u)]
    nw = math.hypot(*w)
    v = [math.cos(t) * x + math.sin(t) * y / nw for x, y in zip(u, w)]
    nv = math.hypot(*v)
    return [x / nv for x in v]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_wedge_resolution_with_two_samples_under_1e8_rad_apart(k):
    # a twin 5e-9 rad from the worst-spaced sample: their Gram entry is 1.0
    # to within an ulp, as the masked diagonal's would be, yet each is the
    # other's nearest neighbour, so the resolution drops to the next-worst
    # spacing
    sp = wedge_sphere_space(2, k, 2.0, n=40, seed=k)
    worst = max(sp.sample_set[1:], key=lambda p: min(
        sp.dist(p, q) for q in sp.sample_set if q != p and q.sphere in (0, p.sphere)))
    twin = sp.point(worst.sphere, _turned(worst.u, 5e-9))
    assert 0 < sp.dist(worst, twin) < 1e-8 * sp.R
    assert abs((np.array([worst.u]) @ np.array([twin.u]).T)[0, 0] - 1.0) <= 2.0**-52
    sp.sample_set.append(twin)
    got = _refill(sp)
    assert got.hex() == _fill_resolution_oracle(sp).hex()
    assert got < sp.resolution


def test_wedge_resolution_reads_every_kept_row():
    # a group of 2 * BLOCK + 48 samples, whose evenly spaced ones tie within
    # SCREEN_SLACK, so more than BLOCK rows pass the row screen; moving both
    # neighbours of sample i 1e-9 rad away makes i the widest-spaced sample,
    # for each i in turn
    m = 2 * BLOCK + 30
    for i in range(m):
        sp = wedge_sphere_space(1, 1, 1.0, n=16, seed=2)
        ts = [2 * math.pi * (j + 0.5) / m + 1e-9 * ((j == i + 1) - (j == i - 1))
              for j in range(m)]
        sp.sample_set.extend(sp.point(1, (math.cos(t), math.sin(t))) for t in ts)
        # on a circle each sample's nearest neighbour is next to it by angle
        ring = sorted(sp.sample_set, key=lambda p: math.atan2(p.u[1], p.u[0]))
        want = max(min(sp.dist(p, ring[j - 1]), sp.dist(p, ring[(j + 1) % len(ring)]))
                   for j, p in enumerate(ring))
        assert _refill(sp).hex() == want.hex()
    assert want.hex() == _fill_resolution_oracle(sp).hex()


def test_wedge_n800_resolution_pinned():
    # the value the all-pairs loop gave; a certificate writes it
    p = wedge_problem(3, 2, 2.0, 0.5, n=800)
    assert p.space.resolution == float.fromhex("0x1.7f76b57b408dcp-2")


# sha256 of repr(sample_set) and of repr(resolution) that the row-by-row
# draw (np.linalg.norm per row, then ``point``) gave; the array draw must
# reproduce them on whatever BLAS numpy is linked against
_WEDGE_SAMPLE_DIGESTS = {
    (2, 1, 16, 5): ("2092cd55e209addf9c910c42cd3de2f3052b5df79d29cf2996e4962f96bfbd14",
                    "bfcb601f60ac77905c912b150ee1705528335d2b49c3b3390367e5737e2e9f9e"),
    (3, 2, 300, 7): ("c5971e69ea8c69fc86be41344d837dc7baa9395c6edac6cdeeb37dc85df77e78",
                     "ffed84c41334483b2b4a49874e81ce0611197bbdd158ed4f2e8ff9c908c597ef"),
    (4, 2, 150, 123): ("140071e58f084c8749432c1f0432af0b1b219e715f63984bbc4f6332017648e3",
                       "7b4345a4fafe5e9bc26c41d18e5f99944f700509cf3d8c484edda49b964db72c"),
    (3, 3, 100, 9): ("034af2b8432d979b41052cf5dbe522949f3dd4a1e0d7a3fec916dc3f7a3d4b64",
                     "1796138938c8f5b37b02d5ca10413e589b743b38b746562797eba3e49f819440"),
    (3, 2, 800, 0): ("fbe89c61d07cc1e32226e934490befda56a17bcf87816262e4b09473ea040557",
                     "9eee04ff9ff1a5dde3028a09c5e0fe31f8b99d1a330619726a6b518c32b50148"),
}


@pytest.mark.parametrize("w, k, n, seed", sorted(_WEDGE_SAMPLE_DIGESTS))
def test_wedge_sample_set_pinned(w, k, n, seed):
    sp = wedge_sphere_space(w, k, 2.0, n=n, seed=seed)
    got = tuple(hashlib.sha256(repr(v).encode()).hexdigest()
                for v in (sp.sample_set, sp.resolution))
    assert got == _WEDGE_SAMPLE_DIGESTS[(w, k, n, seed)]


def test_interval_space_grid_and_distance():
    sp = interval_space(11)
    assert sp.dist(0.3, 0.7) == pytest.approx(0.4)
    sp = interval_space(2)
    assert _diameter(sp, sp.sample_set) == pytest.approx(1.0)
    assert interval_space(101).resolution == pytest.approx(0.01)


def test_graph_space_shortest_paths():
    tri = graph_space([("a", "b"), ("b", "c"), ("a", "c")])
    assert tri.dist("a", "c") == pytest.approx(1.0)
    path = graph_space([("a", "b", 2.0), ("b", "c", 3.0)])
    assert path.dist("a", "c") == pytest.approx(5.0)


def test_graph_space_k4_diameter_matches_floyd_warshall():
    verts = list(range(4))
    edges = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :]]
    sp = graph_space(edges)
    # independent all-pairs oracle
    inf = float("inf")
    d = {u: {v: (0 if u == v else inf) for v in verts} for u in verts}
    for u, v in edges:
        d[u][v] = d[v][u] = 1.0
    for k in verts:
        for i in verts:
            for j in verts:
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    oracle = max(d[u][v] for u in verts for v in verts)
    assert _diameter(sp, sp.sample_set) == pytest.approx(oracle) == pytest.approx(1.0)


@pytest.mark.parametrize("weight", [0.0, -1.0, math.inf, math.nan, True, "1"])
def test_graph_space_rejects_a_weight_outside_the_positive_reals(weight):
    # an infinite edge would make the graph's distances and resolution infinite
    with pytest.raises(ValueError, match=r"edge \['a', 'b', .*\] needs a positive finite number"):
        graph_space([["a", "b", weight], ["b", "c", 1.0]])


def test_graph_space_rejects_disconnected_with_component_report():
    with pytest.raises(ValueError, match="components"):
        graph_space([("a", "b"), ("c", "d")])


def test_graph_distances_are_bit_symmetric():
    # Dijkstra from p and from q can sum one shortest path in two orders
    rnd = random.Random(23)
    for _ in range(200):
        edges = [(v, rnd.randrange(v), rnd.uniform(0.05, 1.0)) for v in range(1, 8)]
        edges += [(u, v, rnd.uniform(0.05, 1.0)) for u in range(8) for v in range(u)
                  if rnd.random() < 0.3]
        sp = graph_space(edges)
        for p in sp.sample_set:
            for q in sp.sample_set:
                assert sp.dist(p, q) == sp.dist(q, p)


def test_support_check_ignores_point_order_on_graphs():
    g = graph_space([("a", "b", 0.1), ("b", "c", 0.2), ("c", "d", 0.3)])
    assert support_check(g, ["a", "d"], 0.6) == support_check(g, ["d", "a"], 0.6) == (True, 0.6)


def test_disjoint_union_separation_and_identity():
    a = bouquet_space(2, 10.0, 0.5)
    b = bouquet_space(2, 10.0, 0.5)
    u = disjoint_union(a, b, 100.0)
    for p in a.sample_set[:20]:
        for q in b.sample_set[:20]:
            assert u.dist((0, p), (1, q)) >= 100.0
    # within-component distances preserved bit-exactly
    p, q = a.sample_set[3], a.sample_set[11]
    assert u.dist((0, p), (0, q)) == a.dist(p, q)
    assert u.point(1, q) == (1, q)
    for side in (True, False, 1.0, 2, -1):  # True == 1 and 1.0 == 1, yet neither is a side
        with pytest.raises(ValueError, match="side must be 0 or 1"):
            u.point(side, q)


@pytest.mark.parametrize("s", [0.0, -1.0, math.inf, math.nan])
def test_disjoint_union_rejects_separation_outside_positive_reals(s):
    a = bouquet_space(1, 10.0, 1.0)
    with pytest.raises(ValueError, match="separation must be positive and finite"):
        disjoint_union(a, a, s)


# one point above MAX_SAMPLES: (factory, arguments, the refusal's opening words)
_ONE_TOO_MANY = {
    # L/h alone is above the cap: 1 * (1,000,001 - 1) + 1
    "bouquet_one_loop": (bouquet_space, (1, 1_000_001.0, 1.0), "h=1.0 too fine for w=1"),
    # 2 * (500,001 - 1) + 1, with L/h below the cap
    "bouquet_two_loops": (bouquet_space, (2, 500_001.0, 1.0), "h=1.0 too fine for w=2"),
    # 50,000 * (19 + 1) + 1, with n below the per-sphere cap
    "wedge": (wedge_sphere_space, (50_000, 1, 1.0, 19), "n=19 too large for w=50000"),
    # one sample above the per-sphere cap, far below MAX_SAMPLES
    "wedge_sphere": (wedge_sphere_space, (1, 1, 1.0, MAX_SPHERE_SAMPLES + 1),
                     "n=16001 too large for w=1: a sphere may hold at most"),
    # the most samples eight spheres may hold under MAX_SCREEN_PAIRS, plus one
    "wedge_screen": (wedge_sphere_space, (8, 1, 1.0, 7_901),
                     "n=7901 too large for w=8: the spheres would screen"),
    "interval": (interval_space, (MAX_SAMPLES + 1,), "n=1000001 grid points exceed"),
}


@pytest.mark.parametrize("case", sorted(_ONE_TOO_MANY))
def test_a_sample_set_one_above_the_cap_is_refused(case):
    build, args, needle = _ONE_TOO_MANY[case]
    start = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(needle)):
        build(*args)
    assert time.perf_counter() - start < 0.1


def test_the_cap_itself_is_allowed_and_a_union_above_it_refused():
    half = interval_space(MAX_SAMPLES // 2)
    assert len(interval_space(MAX_SAMPLES).sample_set) == MAX_SAMPLES
    with pytest.raises(ValueError, match=re.escape("left, right hold 500000 + 500001 sample points")):
        disjoint_union(half, interval_space(MAX_SAMPLES // 2 + 1), 1.0)


def test_disjoint_union_minimum_achieved_at_anchors():
    a = bouquet_space(1, 10.0, 1.0)
    b = bouquet_space(1, 10.0, 1.0)
    u = disjoint_union(a, b, 100.0)
    best = min(
        u.dist(p, q)
        for p in u.sample_set
        for q in u.sample_set
        if p[0] == 0 and q[0] == 1
    )
    assert best == pytest.approx(100.0)
    assert u.dist((0, u.anchors[0]), (1, u.anchors[1])) == pytest.approx(100.0)


def test_subset_diameter_values():
    sp = bouquet_space(2, 10.0, 0.25)
    assert _diameter(sp, [sp.point(1, 3.0)]) == 0.0
    arc = [p for p in sp.sample_set if p.loop == 1 and sp.dist(p, sp.antipode(1)) <= 0.75]
    assert _diameter(sp, arc) == pytest.approx(1.5)
    loop = [sp.wedge_point] + [p for p in sp.sample_set if p.loop == 1]
    assert _diameter(sp, loop) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        _diameter(sp, [])


def test_subset_diameter_monotone_under_inclusion():
    sp = bouquet_space(3, 10.0, 0.5)
    rnd = random.Random(5)
    for _ in range(50):
        pts = rnd.sample(sp.sample_set, 8)
        sub = rnd.sample(pts, 4)
        assert _diameter(sp, sub) <= _diameter(sp, pts)


def _union_find_connected(space, pts, h):
    """Independent oracle: union-find over the {d <= h} graph."""
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if space.dist(pts[i], pts[j]) <= h:
                parent[find(i)] = find(j)
    return len({find(i) for i in range(len(pts))}) == 1


def test_chain_connectivity_cases():
    sp = bouquet_space(2, 10.0, 0.25)
    far = [sp.point(1, 1.0), sp.point(1, 4.0)]
    assert not support_check(sp, far, 1.0)[0]
    arc = [sp.point(1, 1.0 + 0.25 * i) for i in range(9)]
    assert support_check(sp, arc, 0.25)[0]
    # points on two loops, all >= L/4 from the wedge point, step L/8
    split = [p for p in sp.sample_set if p.loop != 0 and min(p.s, 10 - p.s) >= 2.5]
    assert not support_check(sp, split, 1.25)[0]
    assert _union_find_connected(sp, split, 1.25) is False


def test_chain_connectivity_matches_union_find_oracle():
    sp = bouquet_space(2, 10.0, 0.5)
    rnd = random.Random(11)
    for _ in range(40):
        pts = rnd.sample(sp.sample_set, rnd.randint(2, 12))
        h = rnd.choice([0.5, 1.0, 2.0, 5.0])
        assert support_check(sp, pts, h)[0] == _union_find_connected(sp, pts, h)


@pytest.mark.parametrize(
    "make",
    [
        lambda: bouquet_space(3, 10.0, 0.5),
        lambda: wedge_sphere_space(2, 2, 2.0, n=40, seed=2),
        lambda: interval_space(41),
        lambda: graph_space([(0, 1, 1.5), (1, 2, 0.5), (2, 3, 2.0), (3, 0, 1.0), (0, 2, 2.5)]),
        lambda: disjoint_union(bouquet_space(1, 6.0, 0.5), interval_space(11), 4.0),
    ],
)
def test_metric_axioms_on_random_triples(make):
    sp = make()
    rnd = random.Random(13)
    pts = sp.sample_set
    for _ in range(10_000):
        p, q, r = (rnd.choice(pts) for _ in range(3))
        dpq = sp.dist(p, q)
        assert dpq >= 0.0
        assert dpq == sp.dist(q, p)  # symmetry is exact
        if p == q:
            assert dpq == 0.0
        else:
            assert dpq > 0.0
        assert dpq <= sp.dist(p, r) + sp.dist(r, q) + 1e-12


_BOUQUET = bouquet_space(3, 10.0, 0.5)
_KERNEL_SPACES = {
    "bouquet": _BOUQUET,
    "interval": interval_space(21),
    "union": disjoint_union(_BOUQUET, bouquet_space(2, 7.0, 0.25), 2.5),
    "wedge": wedge_sphere_space(2, 2, 1.5, n=16, seed=3),
    "wedge_k1": wedge_sphere_space(3, 1, 0.8, n=16, seed=4),
    "wedge_k3": wedge_sphere_space(2, 3, 2.5, n=16, seed=5),
    "graph": graph_space([("a", "b", 0.3), ("b", "c", 1.7), ("c", "a", 0.9), ("c", "d", 2.2)]),
}


def _bouquet_points(sp):
    # arc 0 is the wedge point on every loop, L/2 the loop's antipode
    arc = st.one_of(st.just(0.0), st.just(sp.L / 2), st.floats(0.0, sp.L, exclude_max=True))
    return st.builds(sp.point, st.integers(1, sp.w), arc)


def _wedge_points(sp):
    # sample points, which the pole-angle cache holds, and points off it:
    # fresh unit vectors and sample directions moved to another sphere
    def fresh(sphere, raw):
        nrm = math.hypot(*raw)
        return sp.point(sphere, [x / nrm for x in raw])

    raw = st.lists(st.floats(-1.0, 1.0), min_size=sp.k + 1, max_size=sp.k + 1)
    return st.one_of(
        st.sampled_from(sp.sample_set),
        st.sampled_from([sp.pole] + [sp.antipode(j) for j in range(1, sp.w + 1)]),
        st.builds(fresh, st.integers(1, sp.w), raw.filter(lambda v: math.hypot(*v) > 0.1)),
        st.builds(sp.point, st.integers(1, sp.w), st.sampled_from([p.u for p in sp.sample_set])),
    )


def _wedge_dist(sp, p, q):
    """The scalar wedge metric written out, with no cached pole angle."""
    def angle(u, v):
        return 2.0 * math.atan2(math.dist(u, v), math.dist(u, [-x for x in v]))

    if p.sphere == q.sphere:
        return sp.R * angle(p.u, q.u)
    return sp.R * (angle(p.u, sp.pole_dir) + angle(q.u, sp.pole_dir))


def _kernel_points(name):
    sp = _KERNEL_SPACES[name]
    if name == "bouquet":
        pt = _bouquet_points(sp)
    elif name == "interval":
        pt = st.floats(0.0, 1.0)
    elif name == "union":
        pt = st.one_of(
            st.builds(sp.point, st.just(0), _bouquet_points(sp.left)),
            st.builds(sp.point, st.just(1), _bouquet_points(sp.right)),
        )
    elif name.startswith("wedge"):
        pt = _wedge_points(sp)
    else:  # graph, like union, uses the base-class loop over ``dist``
        pt = st.sampled_from(sp.sample_set)
    return st.lists(pt, max_size=8)


def _antipode_examples(test):
    """Each antipode's row against the whole sample set, and the transpose,
    and against a point of its sphere off the sample set, in both orders,
    on every sphere of every wedge: the entries read from angle rows."""
    for name in ("wedge", "wedge_k1", "wedge_k3"):
        sp = _KERNEL_SPACES[name]
        for j in range(1, sp.w + 1):
            raw = [0.5 * j] + [-0.75] * sp.k
            off = sp.point(j, [x / math.hypot(*raw) for x in raw])
            assert off not in sp.sample_set
            test = example((name, [sp.antipode(j)], sp.sample_set))(test)
            test = example((name, sp.sample_set, [sp.antipode(j)]))(test)
            test = example((name, [off], [sp.antipode(j)]))(test)
            test = example((name, [sp.antipode(j)], [off]))(test)
    return test


# points one least subnormal off the antipode of sphere 1, whose antipode
# angle 2*atan2(5e-324, 2.0) is 0.0 as the antipode's is, and one two off
_NEAR_ANTIPODES = [_KERNEL_SPACES["wedge"].point(1, u) for u in
                   [(-1.0, 5e-324, 0.0), (-1.0, 0.0, -5e-324), (-1.0, 1e-323, 0.0)]]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_KERNEL_SPACES)).flatmap(
    lambda name: st.tuples(st.just(name), _kernel_points(name), _kernel_points(name))))
@example(("union", [], [(1, _KERNEL_SPACES["union"].right.wedge_point)]))
@example(("wedge", _KERNEL_SPACES["wedge"].sample_set[:2], []))
@example(("wedge", [_KERNEL_SPACES["wedge"].point(1, (-1.0, -0.0, 0.0))],
          _KERNEL_SPACES["wedge"].sample_set))
@example(("wedge", _NEAR_ANTIPODES + [_KERNEL_SPACES["wedge"].antipode(1)],
          _NEAR_ANTIPODES + [_KERNEL_SPACES["wedge"].antipode(1)]))
@_antipode_examples
def test_dists_matrix_equals_scalar_dist(case):
    name, ps, qs = case
    sp = _KERNEL_SPACES[name]
    got = sp.dists(ps, qs)
    assert got.shape == (len(ps), len(qs))
    for i, p in enumerate(ps):
        for j, q in enumerate(qs):
            assert got[i, j] == sp.dist(p, q)  # bit for bit, not approximately
            if name.startswith("wedge"):
                assert got[i, j] == _wedge_dist(sp, p, q)
