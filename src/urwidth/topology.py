"""Nerve complexes, Betti numbers over the two-element field, systole.

The nerve of a covering has one vertex per triple, an edge for every
pair of supports that share a point, and a triangle for every trio that
shares one; dimension 2 suffices because the first Betti number only
involves the boundary maps out of edges and triangles.  The nerve is
built in one pass that maps each support point to the supports holding
it, so it costs the total support size plus, summed over points,
C(m, 2) + C(m, 3) for the m supports holding the point, not a scan of
all pairs and trios of supports.  Homology is
computed over F2 (rank by elimination on bit rows), which avoids
orientation bookkeeping and gives the same Betti ranks for the spaces
handled here.

Also provided: weighted graph girth as the systole of a graph space, the
analytic systole of a bouquet, the cycle-rank formula beta1 = |E| - |V|
+ c, and the bounded-adjacency lower-bound check N >= 2*beta1 / Delta0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import networkx as nx

from .coverings import UrysohnCovering, UrysohnTriple
from .spaces import BouquetSpace, GraphSpace, MetricSpace

__all__ = [
    "SimplicialComplex",
    "BettiBoundCheck",
    "nerve",
    "betti",
    "max_adjacency",
    "betti_bound_check",
    "graph_beta1",
    "systole",
    "cyclic_arc_cover",
    "vertex_star_cover",
]


@dataclass
class SimplicialComplex:
    """A 2-complex: nerve vertices, sorted edges and sorted triangles."""

    vertices: list[int]
    edges: list[tuple[int, int]]
    triangles: list[tuple[int, int, int]]


def nerve(cov: UrysohnCovering) -> SimplicialComplex:
    """Nerve of a covering up to dimension 2.

    Supports intersect iff they share a sample point; this is the
    certificate's declared overlap semantics.  One pass over the supports
    lists, for each point, the ids of the supports holding it, in
    increasing order; every pair in a list is an edge and every trio a
    triangle.  The cost is the total support size plus the sum over
    points of C(m, 2) + C(m, 3), where m supports hold the point.
    """
    holders: dict = {}
    for i, t in enumerate(cov.triples):
        for x in dict.fromkeys(t.support):  # a point listed twice counts once
            holders.setdefault(x, []).append(i)
    edges, triangles = set(), set()
    for ids in holders.values():
        edges.update(combinations(ids, 2))
        triangles.update(combinations(ids, 3))
    return SimplicialComplex(list(range(len(cov.triples))), sorted(edges), sorted(triangles))


def _f2_rank(rows: list[int]) -> int:
    """Rank of a set of F2 vectors packed as integers."""
    pivots: dict[int, int] = {}
    rank = 0
    for v in rows:
        while v:
            top = v.bit_length() - 1
            if top in pivots:
                v ^= pivots[top]
            else:
                pivots[top] = v
                rank += 1
                break
    return rank


def _d2_columns(cx: SimplicialComplex) -> list[int]:
    """Columns of the boundary map d2 (triangles -> edges), bit-packed."""
    eindex = {tuple(sorted(e)): i for i, e in enumerate(cx.edges)}
    d2 = []
    for a, b, c in cx.triangles:
        col = 0
        for face in ((a, b), (a, c), (b, c)):
            col |= 1 << eindex[tuple(sorted(face))]
        d2.append(col)
    return d2


def betti(cx: SimplicialComplex) -> tuple[int, int]:
    """(beta0, beta1) of a 2-complex over F2.

    beta0 = |V| - rank d1, beta1 = dim ker d1 - rank d2; boundary ranks
    by elimination on bit-packed columns.
    """
    vindex = {v: i for i, v in enumerate(cx.vertices)}
    d1 = [(1 << vindex[a]) | (1 << vindex[b]) for a, b in cx.edges]
    r1 = _f2_rank(d1)
    r2 = _f2_rank(_d2_columns(cx))
    beta0 = len(cx.vertices) - r1
    beta1 = (len(cx.edges) - r1) - r2
    return beta0, beta1


def max_adjacency(cx: SimplicialComplex) -> int:
    """Delta0: maximum vertex degree of the nerve's 1-skeleton."""
    return max(Counter(v for e in cx.edges for v in e).values(), default=0)


@dataclass
class BettiBoundCheck:
    passed: bool
    bound: float
    slack: float
    note: str = ""


def betti_bound_check(n_patches: int, beta1_space: int, delta0: int) -> BettiBoundCheck:
    """Check the bounded-adjacency lower bound N >= 2*beta1 / Delta0.

    ``beta1_space`` is declared by the caller; verifying that the safe
    region actually carries that many independent cycles is the caller's
    responsibility for non-standard inputs.
    """
    if delta0 == 0:
        if beta1_space == 0:
            return BettiBoundCheck(True, 0.0, float(n_patches), "vacuous: no adjacency, no cycles")
        return BettiBoundCheck(
            False, math.inf, -math.inf,
            "degenerate: isolated patches cannot carry cycles",
        )
    bound = 2.0 * beta1_space / delta0
    return BettiBoundCheck(n_patches >= bound, bound, n_patches - bound)


def graph_beta1(g) -> int:
    """Cycle rank |E| - |V| + c of a graph (GraphSpace or networkx graph)."""
    graph = g.graph if isinstance(g, GraphSpace) else g
    return (
        graph.number_of_edges()
        - graph.number_of_nodes()
        + nx.number_connected_components(graph)
    )


def systole(space: MetricSpace) -> float:
    """Length of the shortest non-contractible loop.

    Bouquets have systole L analytically.  For graph spaces this is the
    weighted girth: min over edges (u, v) of weight + d(u, v) in the
    graph with that edge removed.  Returns math.inf for trees (no
    non-contractible loop).
    """
    if isinstance(space, BouquetSpace):
        return space.L
    if not isinstance(space, GraphSpace):
        raise ValueError(f"systole defined for graph or bouquet spaces, not {space.kind}")
    g = space.graph
    best = math.inf
    for u, v, weight in g.edges(data="weight"):
        try:  # a read-only view without the edge: the space stays untouched
            alt = nx.dijkstra_path_length(nx.restricted_view(g, [], [(u, v)]), u, v,
                                          weight="weight")
        except nx.NetworkXNoPath:
            continue
        best = min(best, weight + alt)
    return best


def cyclic_arc_cover(space: BouquetSpace, arcs_per_loop: int) -> UrysohnCovering:
    """Cover each loop by ``arcs_per_loop`` overlapping sampled arcs.

    Consecutive arcs (cyclically) overlap by one sampling resolution and
    share sample points; the wedge point itself is assigned to no arc, so
    arcs on different loops never meet and the nerve splits into one
    cycle per loop.  Not a margin covering, a topological probe.
    """
    if arcs_per_loop < 3:
        raise ValueError("need at least 3 arcs per loop for a cyclic cover")
    L = space.L
    step = L / arcs_per_loop
    overlap = space.resolution
    by_loop = {loop: [] for loop in range(1, space.w + 1)}
    for p in space.sample_set:
        if p.loop in by_loop:
            by_loop[p.loop].append(p)
    triples = []
    for loop, loop_pts in by_loop.items():
        for i in range(arcs_per_loop):
            lo = i * step - overlap
            hi = (i + 1) * step + overlap
            members = [
                p for p in loop_pts
                if lo <= p.s <= hi or lo <= p.s - L <= hi
            ]
            triples.append(UrysohnTriple(members, (loop,), {p: loop for p in members}))
    return UrysohnCovering(triples, d0=step + 2 * overlap, h=2 * space.resolution)


def vertex_star_cover(space: GraphSpace) -> UrysohnCovering:
    """Open-star cover of a graph: one support per vertex, holding the
    vertex token plus a token per incident edge.

    Two stars share a token iff their vertices are adjacent and no three
    stars share one, so the nerve reproduces the graph as a 1-complex;
    used to cross-validate the cycle-rank formula against F2 homology.
    """
    g = space.graph
    triples = []
    for u in space.sample_set:
        tokens = [("v", u)] + [("e", frozenset((u, w))) for w in g.neighbors(u)]
        triples.append(UrysohnTriple(tokens, (1,), {t: 1 for t in tokens}))
    return UrysohnCovering(triples, d0=2.0 * space.resolution, h=space.resolution)
