"""Geodesic model spaces with closed-form metrics.

Every space here answers distance queries analytically; the finite
``sample_set`` only discretizes the space for search and certification,
it never changes a distance.  Supported constructions:

* ``bouquet_space`` -- wedge of ``w`` circles of circumference ``L``, glued
  at a single point ``v``; shortest-path metric along arcs.
* ``wedge_sphere_space`` -- wedge of ``w`` round k-spheres of radius ``R``
  glued at a common pole; great-circle metric within a sphere, paths
  between spheres route through the pole.
* ``interval_space`` -- the unit interval with a uniform grid.
* ``graph_space`` -- a finite connected weighted graph with the
  shortest-path metric on vertices.
* ``disjoint_union`` -- two spaces bridged through designated anchor
  points at separation ``s``, so the components stay >= s apart.

Points are plain hashable values whose shape depends on the space kind
(see the point types below); always build them through the space's
``point`` factory so shared glue points are canonicalized.
"""

from __future__ import annotations

import inspect
import math
from itertools import chain, repeat
from numbers import Real
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "BouquetPoint",
    "SpherePoint",
    "MetricSpace",
    "BouquetSpace",
    "WedgeSphereSpace",
    "IntervalSpace",
    "GraphSpace",
    "DisjointUnionSpace",
    "bouquet_space",
    "wedge_sphere_space",
    "interval_space",
    "graph_space",
    "disjoint_union",
    "support_check",
]


class BouquetPoint(NamedTuple):
    """A point on a bouquet of circles: loop index and arc position in [0, L).

    The wedge point is canonically ``BouquetPoint(0, 0.0)``; loop indices
    run 1..w for interior arc points.
    """

    loop: int
    s: float


class SpherePoint(NamedTuple):
    """A point on a wedge of spheres: sphere index and unit direction.

    The glue pole is canonically ``SpherePoint(0, e0)`` with
    ``e0 = (1, 0, ..., 0)``; sphere indices run 1..w otherwise.
    """

    sphere: int
    u: tuple


# Screening slack, in cosine units, of ``WedgeSphereSpace._fill_resolution``.
# The screen ranks pairs by the Gram entry u . v = cos(angle).  The cosine
# falls as the angle grows and |d cos| <= |d angle|, so a pair at least as
# near as another by the scalar ``_unit_angle`` has a cosine no further below
# the other's than their angle errors.  Gram entries and scalar angles each
# err by about 1e-15 (1e-12 with the unit-length tolerance of ``point``), far
# below 1e-9, whatever BLAS computes the product: a column whose cosine lies
# more than 1e-9 below its row's largest cannot be the scalar nearest
# neighbour, and a row whose nearest-neighbour cosine lies more than 1e-9
# above the smallest cannot hold the scalar maximum.  Rows are screened
# BLOCK at a time, so the Gram temporaries hold BLOCK x group floats.
SCREEN_SLACK = 1e-9
# The largest sample set a space may hold; each constructor refuses a larger
# count, computed from its arguments, before it builds anything.  The cost
# is linear in the count: the 940-byte bouquet_problem(3, 10, 1, 0.5)
# certificate at D0 = 4 with h edited to 1e-4 (300,001 points) verified in
# 0.5 s and 88 MB peak RSS, with 3e-5 (1,000,000) in 1.6 s and 185 MB, on a
# 2-core Xeon.  No experiment, benchmark or test builds more than about
# 3,200 points (the certify bouquets at w = 16, h = 0.05).
MAX_SAMPLES = 10**6
# The most samples one wedge sphere may hold, refused before anything is
# drawn.  ``_fill_resolution`` screens every pair of a sphere's samples, so
# the time is quadratic in n: the wedge_problem(2, 2, 2.0, 0.5, n=16, seed=1)
# certificate at D0 = 1 with n edited to 16,000 is refused in 0.6-0.75 s,
# with 20,000 in 0.9 s and 24,000 in 1.3 s, on a 2-core Xeon.  No
# experiment, benchmark or test draws more than 800 points per sphere.
MAX_SPHERE_SAMPLES = 16_000
# A sphere of n samples screens about as long as (n + SCREEN_SETUP)**2 pairs:
# its fixed numpy calls, per sphere and per BLOCK rows, take as long as 200
# more samples would (about 43 us a sphere, and 1.07 ns a pair, on that Xeon).
SCREEN_SETUP = 200
# The most pairs that the screens of all spheres may take together, refused
# before anything is drawn: the w = 2 cap's total, so that no admitted
# (w, n) screens much longer than it.  At the bound the screen took 0.55 s
# at (w, n) = (2, 16,000), 0.54 at (8, 7,900), 0.54 at (32, 3,850), 0.35 at
# (128, 1,825), 0.37 at (512, 812) and 0.49 at (11,250, 16).  The 2,347-byte
# wedge_problem(8, 2, 2.0, 0.5, n=16, seed=1) certificate at D0 = 1 with n
# edited to 7,900 is refused in 0.8-0.9 s, and with 16,000 at once.
MAX_SCREEN_PAIRS = 2 * (MAX_SPHERE_SAMPLES + SCREEN_SETUP) ** 2
# Rows per block wherever a distance matrix or screen is built block by
# block: peak memory is BLOCK x columns floats, not rows x columns.
BLOCK = 64


def _unit_angle(u: Sequence[float], v: Sequence[float]) -> float:
    # Kahan's formula: stable at both the parallel and antipodal ends,
    # unlike arccos of the dot product.
    d_minus = math.dist(u, v)
    d_plus = math.dist(u, [-x for x in v])
    return 2.0 * math.atan2(d_minus, d_plus)


class MetricSpace:
    """Base class: an immutable space with a total distance function.

    Subclasses set ``kind``, ``sample_set`` and ``resolution`` at
    construction time and implement ``dist``.  All operations are pure,
    so instances are safe to share across threads.
    """

    kind: str = "abstract"

    def __init__(self) -> None:
        self.sample_set: list = []
        self.resolution: float = 0.0

    def dist(self, p, q) -> float:
        raise NotImplementedError

    def dists(self, ps: Sequence, qs: Sequence) -> np.ndarray:
        """The ``len(ps) x len(qs)`` matrix of ``dist(p, q)``, bit for bit.

        This base version loops over the scalar ``dist``.  Bouquet and
        interval override it with array arithmetic in the same order; the
        wedge of spheres fills cross-sphere entries, and same-sphere entries
        with an antipode on either side, from each point's angle row, and
        keeps the scalar formula for the other same-sphere entries.
        """
        out = np.empty((len(ps), len(qs)))
        for i, p in enumerate(ps):
            for j, q in enumerate(qs):
                out[i, j] = self.dist(p, q)
        return out

    def describe(self) -> dict:
        """``kind`` and each constructor argument, read back from the attribute
        of the same name, for the structured-text export."""
        params = inspect.signature(type(self)).parameters
        return {"kind": self.kind, **{name: getattr(self, name) for name in params}}


class BouquetSpace(MetricSpace):
    kind = "bouquet"

    def __init__(self, w: int, L: float, h: float):
        super().__init__()
        if w < 1:
            raise ValueError(f"need at least one loop, got w={w}")
        if not (0 < L < math.inf and 0 < h < math.inf):  # NaN fails too
            raise ValueError(f"L and h must be positive and finite, got L={L}, h={h}")
        if h > L / 8:
            raise ValueError(
                f"resolution h={h} too coarse: require h <= L/8 = {L / 8} "
                "so safe balls stay resolvable"
            )
        if L / h > MAX_SAMPLES or w * (math.ceil(L / h) - 1) + 1 > MAX_SAMPLES:
            raise ValueError(f"h={h} too fine for w={w}, L={L}: the sample set would hold "
                             f"w*(ceil(L/h) - 1) + 1 > MAX_SAMPLES = {MAX_SAMPLES} points")
        self.w = w
        self.L = float(L)
        self.h = float(h)
        self.n_per_loop = math.ceil(L / h)
        self.resolution = self.L / self.n_per_loop
        self.wedge_point = BouquetPoint(0, 0.0)
        # i * resolution for i = 1..n-1, the same IEEE product on every loop
        arc = np.arange(1, self.n_per_loop) * self.resolution
        row = arc.tolist()
        pts: list[BouquetPoint] = [self.wedge_point]
        for loop in range(1, w + 1):
            # BouquetPoint(loop, s) for each s, skipping its Python-level __new__
            pts += map(tuple.__new__, repeat(BouquetPoint), zip(repeat(loop), row))
        self._sample_coords = (
            np.concatenate(([0], np.repeat(np.arange(1, w + 1), len(row)))),
            np.concatenate(([0.0], np.tile(arc, w))),
        )
        self.sample_set = pts

    def point(self, loop: int, s: float) -> BouquetPoint:
        if not 0 <= s < self.L:
            raise ValueError(f"arc position {s} outside [0, {self.L})")
        if s == 0.0:
            return self.wedge_point
        if not 1 <= loop <= self.w:
            raise ValueError(f"loop index {loop} outside 1..{self.w}")
        return BouquetPoint(loop, float(s))

    def antipode(self, loop: int) -> BouquetPoint:
        """The point at arc distance L/2 from the wedge point on ``loop``."""
        return self.point(loop, self.L / 2)

    def dist(self, p: BouquetPoint, q: BouquetPoint) -> float:
        if p.loop == q.loop:
            a = abs(p.s - q.s)
            return min(a, self.L - a)
        # cross-loop paths run through the wedge point
        return min(p.s, self.L - p.s) + min(q.s, self.L - q.s)

    def _coords(self, pts: Sequence[BouquetPoint]) -> tuple[np.ndarray, np.ndarray]:
        """Loop and arc arrays of ``pts``; the sample set's are built once."""
        if pts is self.sample_set and len(pts) == len(self._sample_coords[0]):
            return self._sample_coords
        return (np.array([p.loop for p in pts], dtype=int),
                np.array([p.s for p in pts], dtype=float))

    def dists(self, ps: Sequence[BouquetPoint], qs: Sequence[BouquetPoint]) -> np.ndarray:
        (lp, sp), (lq, sq) = self._coords(ps), self._coords(qs)
        out = np.abs(sp[:, None] - sq[None, :])
        np.minimum(out, self.L - out, out=out)
        cross = np.minimum(sp, self.L - sp)[:, None] + np.minimum(sq, self.L - sq)[None, :]
        np.copyto(out, cross, where=lp[:, None] != lq[None, :])
        return out


def _angle_columns(rows: Iterable[tuple[float, float, float]], count: int) -> np.ndarray:
    """``count`` wedge angle rows as three columns: pole angles, antipode angles, tags."""
    return np.fromiter(chain.from_iterable(rows), float, 3 * count).reshape(-1, 3).T


class WedgeSphereSpace(MetricSpace):
    """Wedge of round k-spheres glued at a common pole.

    ``_row`` gives every point one angle row: pole angle, antipode angle and
    sphere tag, cached for the sample points at construction.  A
    cross-sphere distance is R times the sum of two pole angles, and a
    same-sphere distance from an antipode is R times the other point's
    antipode angle, so ``dists`` fills those entries with numpy and equals
    ``dist`` bit for bit; other same-sphere entries stay on the scalar
    great-circle formula.
    """

    kind = "wedge_spheres"

    def __init__(self, w: int, k: int, R: float, n: int, seed: int):
        super().__init__()
        if w < 1 or k < 1:
            raise ValueError(f"need w >= 1 and k >= 1, got w={w}, k={k}")
        if not 0 < R < math.inf:  # NaN fails too
            raise ValueError(f"radius must be positive and finite, got R={R}")
        if n < 16:
            raise ValueError(f"need n >= 16 samples per sphere, got n={n}")
        if n > MAX_SPHERE_SAMPLES:
            raise ValueError(f"n={n} too large for w={w}: a sphere may hold at most "
                             f"MAX_SPHERE_SAMPLES = {MAX_SPHERE_SAMPLES} samples")
        if w * (n + 1) + 1 > MAX_SAMPLES:
            raise ValueError(f"n={n} too large for w={w}: the sample set would hold "
                             f"w*(n + 1) + 1 > MAX_SAMPLES = {MAX_SAMPLES} points")
        if w * (n + SCREEN_SETUP) ** 2 > MAX_SCREEN_PAIRS:
            raise ValueError(f"n={n} too large for w={w}: the spheres would screen "
                             f"w*(n + SCREEN_SETUP)**2 > MAX_SCREEN_PAIRS = "
                             f"{MAX_SCREEN_PAIRS} sample pairs")
        if seed < 0:
            raise ValueError(f"need a non-negative seed, got seed={seed}")
        self.w = w
        self.k = k
        self.R = float(R)
        self.n = n
        self.seed = seed
        self.pole_dir = (1.0,) + (0.0,) * k
        self.pole = SpherePoint(0, self.pole_dir)
        self._anti_dir = (-1.0,) + (0.0,) * k
        rng = np.random.default_rng(seed)
        pts: list[SpherePoint] = [self.pole]
        # every point's direction row and sphere tag, for ``_fill_resolution``
        units, tags = [np.array([self.pole_dir])], [np.zeros(1, dtype=int)]
        for sphere in range(1, w + 1):
            pts.append(self.antipode(sphere))
            raw = rng.normal(size=(n, k + 1))
            nrm = np.sqrt(np.vecdot(raw, raw))  # np.linalg.norm of each row, bit for bit
            keep = nrm >= 1e-9  # astronomically unlikely; redraw-free skip
            dirs = raw[keep] / nrm[keep, None]
            # ``point``'s checks, one array at a time; NaN fails too
            dev = np.abs(np.sqrt(np.vecdot(dirs, dirs)) - 1.0)
            if not (dev <= 1e-12).all():
                raise ValueError(f"direction must be unit length, ||u| - 1| = {dev.max()}")
            start = len(pts)
            # SpherePoint(sphere, u) for each row, skipping its Python-level __new__
            pts += map(tuple.__new__, repeat(SpherePoint),
                       zip(repeat(sphere), map(tuple, dirs.tolist())))
            poles = (dirs == self.pole_dir).all(axis=1)
            for i in np.flatnonzero(poles).tolist():
                pts[start + i] = self.pole
            dirs[poles] = self.pole_dir  # the pole's own row, a -0.0 made 0.0
            units += [np.array([self._anti_dir]), dirs]
            tags += [np.array([sphere]), np.where(poles, 0, sphere)]
        self._angles: dict = {}  # each sample point's ``_row``, read-only after construction
        rows = list(map(self._row, pts))
        self._angles.update(zip(pts, rows))
        self._sample_coords = _angle_columns(rows, len(rows))  # before sample_set: built, not read
        self.sample_set = pts
        self.resolution = self._fill_resolution(np.concatenate(units), np.concatenate(tags))

    def _fill_resolution(self, dirs: np.ndarray, tags: np.ndarray) -> float:
        # max nearest-neighbour spacing within any one sphere's samples;
        # chain connectivity at 2x this step links every sampled patch.
        # Gram rows (cosines) screen the rows that can hold the maximum and,
        # in each such row, the columns near its largest cosine; the scalar
        # ``dist`` picks the winner among them, so the value equals the
        # all-pairs loop over ``q != p`` bit for bit.  ``dirs`` and ``tags``
        # hold each sample point's direction and sphere, row by row.
        pts = self.sample_set
        copies = len(self._angles) < len(pts)  # a point drawn twice, or the pole
        worst = 0.0
        # each tag's rows, ascending, from one stable sort, so a sphere's group,
        # its own rows and the pole's, costs its own size, not the sample set's
        by_tag = np.argsort(tags, kind="stable")
        ends = np.searchsorted(tags[by_tag], np.arange(self.w + 2)).tolist()
        for sphere in range(1, self.w + 1):
            own = by_tag[ends[sphere] : ends[sphere + 1]]
            group = np.sort(np.concatenate((by_tag[: ends[1]], own)))
            sub, sub_tags = dirs[group], tags[group]

            def gram(rows):
                cos = sub[rows] @ sub.T
                cos[np.arange(len(rows)), rows] = -np.inf  # the diagonal
                if copies:  # every q == p, not only the diagonal
                    same = (sub_tags[rows, None] == sub_tags) & (sub[rows, None] == sub).all(axis=2)
                    cos[same] = -np.inf
                return cos

            nn = np.concatenate([gram(np.arange(lo, min(lo + BLOCK, len(group)))).max(axis=1)
                                 for lo in range(0, len(group), BLOCK)])
            rows = np.flatnonzero(nn <= nn.min() + SCREEN_SLACK)
            for lo in range(0, len(rows), BLOCK):
                block = rows[lo : lo + BLOCK]
                cos = gram(block)
                near = cos >= cos.max(axis=1, keepdims=True) - SCREEN_SLACK
                for i, row in zip(group[block].tolist(), near):
                    worst = max(worst, min(self.dist(pts[i], pts[j]) for j in group[row].tolist()))
        return worst

    def point(self, sphere: int, u: Sequence[float]) -> SpherePoint:
        vec = tuple(float(x) for x in u)
        if len(vec) != self.k + 1:
            raise ValueError(f"direction must have {self.k + 1} components")
        nrm = math.hypot(*vec)
        if not abs(nrm - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"direction must be unit length, |u| = {nrm}")
        if math.dist(vec, self.pole_dir) == 0.0:
            return self.pole
        if not 1 <= sphere <= self.w:
            raise ValueError(f"sphere index {sphere} outside 1..{self.w}")
        return SpherePoint(sphere, vec)

    def antipode(self, sphere: int) -> SpherePoint:
        return SpherePoint(sphere, self._anti_dir)

    def dist(self, p: SpherePoint, q: SpherePoint) -> float:
        if p.sphere == q.sphere:
            return self.R * _unit_angle(p.u, q.u)
        # through the glue pole; a pole-tagged point has zero pole distance
        return self.R * (self._row(p)[0] + self._row(q)[0])

    def _row(self, p: SpherePoint) -> tuple[float, float, float]:
        """Pole angle, antipode angle and sphere tag of ``p``, cached for a
        sample point.  From the chords dm to the pole and dp to its negation,
        2*atan2(dm, dp) and 2*atan2(dp, dm) are ``_unit_angle`` of u and the
        pole and of u and the antipode either way round, bit for bit, since
        ``math.dist`` takes |a_i - b_i| coordinatewise and negation is exact."""
        row = self._angles.get(p)
        if row is None:
            dm, dp = math.dist(p.u, self.pole_dir), math.dist(p.u, self._anti_dir)
            row = (2.0 * math.atan2(dm, dp), 2.0 * math.atan2(dp, dm), float(p.sphere))
        return row

    def _coords(self, pts: Sequence[SpherePoint]) -> np.ndarray:
        """The ``_row`` columns of ``pts``: pole angles, antipode angles and
        sphere tags; the sample set's are built once."""
        if pts is self.sample_set and len(pts) == len(self._sample_coords[0]):
            return self._sample_coords
        return _angle_columns(map(self._row, pts), len(pts))

    def dists(self, ps: Sequence[SpherePoint], qs: Sequence[SpherePoint]) -> np.ndarray:
        (ap, bp, tp), (aq, bq, tq) = self._coords(ps), self._coords(qs)
        out = self.R * (ap[:, None] + aq[None, :])  # the scalar's two IEEE operations
        same = tp[:, None] == tq[None, :]
        # an antipode has antipode angle 0.0, as has a point one least subnormal
        # off it (2*atan2(5e-324, 2.0) == 0.0), which a nonzero tail tells apart
        fp, fq = bp == 0.0, bq == 0.0
        for f, pts in ((fp, ps), (fq, qs)):
            f[f] = [not any(pts[i].u[1:]) for i in np.flatnonzero(f).tolist()]
        # an antipode against any point: R times the other point's antipode angle
        np.copyto(out, self.R * bq, where=same & fp[:, None])
        np.copyto(out, (self.R * bp)[:, None], where=same & fq)
        ii, jj = np.nonzero(same & ~(fp[:, None] | fq))
        out[ii, jj] = [
            self.R * _unit_angle(ps[i].u, qs[j].u) for i, j in zip(ii.tolist(), jj.tolist())
        ]
        return out


class IntervalSpace(MetricSpace):
    kind = "interval"

    def __init__(self, n: int):
        super().__init__()
        if n < 2:
            raise ValueError(f"need at least 2 grid points, got n={n}")
        if n > MAX_SAMPLES:
            raise ValueError(f"n={n} grid points exceed MAX_SAMPLES = {MAX_SAMPLES}")
        self.n = n
        self.resolution = 1.0 / (n - 1)
        self.sample_set = [i / (n - 1) for i in range(n)]

    def point(self, x: float) -> float:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"point {x} outside [0, 1]")
        return float(x)

    def dist(self, p: float, q: float) -> float:
        return abs(p - q)

    def dists(self, ps: Sequence[float], qs: Sequence[float]) -> np.ndarray:
        return np.abs(np.array(ps, dtype=float)[:, None] - np.array(qs, dtype=float)[None, :])


class GraphSpace(MetricSpace):
    kind = "graph"

    def __init__(self, edges: Iterable[tuple]):
        import networkx as nx  # only graph spaces need it; kept off ``import urwidth``

        super().__init__()
        g = nx.Graph()
        for edge in edges:
            if not isinstance(edge, (list, tuple)) or len(edge) not in (2, 3):
                raise ValueError(f"edge {edge!r} is not a (u, v) or (u, v, weight) list")
            u, v = map(self._vertex, edge[:2])
            weight = edge[2] if len(edge) == 3 else 1.0
            if type(weight) is bool or not isinstance(weight, Real) or not 0 < weight < math.inf:
                raise ValueError(f"edge {edge!r} needs a positive finite number as weight")
            try:
                g.add_edge(u, v, weight=float(weight))
            except TypeError:
                raise ValueError(f"edge {edge!r} has an unhashable vertex") from None
        if g.number_of_nodes() == 0:
            raise ValueError("empty edge list")
        if not nx.is_connected(g):
            comps = [sorted(map(str, c)) for c in nx.connected_components(g)]
            raise ValueError(f"graph is disconnected; components: {comps}")
        self.graph = g
        self.sample_set = sorted(g.nodes, key=str)
        self.resolution = max(d["weight"] for _, _, d in g.edges(data=True))
        # Dijkstra sums a path from its own end, so keep the smaller of d(p, q), d(q, p)
        d = dict(nx.all_pairs_dijkstra_path_length(g, weight="weight"))
        self._d = {p: {q: min(x, d[q][p]) for q, x in row.items()} for p, row in d.items()}

    @staticmethod
    def _vertex(v):
        """JSON has no tuples: a list vertex is a tuple vertex, at every depth."""
        return tuple(map(GraphSpace._vertex, v)) if isinstance(v, list) else v

    def point(self, vertex) -> object:
        vertex = self._vertex(vertex)
        if vertex not in self.graph:
            raise ValueError(f"vertex {vertex!r} not in graph")
        return vertex

    def dist(self, p, q) -> float:
        return self._d[p][q]

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "edges": sorted(
                (str(u), str(v), d["weight"]) for u, v, d in self.graph.edges(data=True)
            ),
        }


class DisjointUnionSpace(MetricSpace):
    """Two spaces bridged through fixed anchors at separation ``s``.

    Cross-component distance is s + d(x, anchor_left) + d(anchor_right, y):
    the path metric of gluing an edge of length s between the anchors,
    which never shortcuts within-component distances and keeps the two
    components at distance >= s.
    """

    kind = "disjoint_union"

    def __init__(self, left: MetricSpace, right: MetricSpace, s: float):
        super().__init__()
        if not 0 < s < math.inf:  # NaN fails too
            raise ValueError(f"separation must be positive and finite, got s={s}")
        if len(left.sample_set) + len(right.sample_set) > MAX_SAMPLES:
            raise ValueError(f"left, right hold {len(left.sample_set)} + {len(right.sample_set)} "
                             f"sample points, more than MAX_SAMPLES = {MAX_SAMPLES}")
        self.left = left
        self.right = right
        self.s = float(s)
        self.anchors = (left.sample_set[0], right.sample_set[0])
        self.sample_set = [(0, p) for p in left.sample_set] + [
            (1, p) for p in right.sample_set
        ]
        self.resolution = max(left.resolution, right.resolution)

    def point(self, side: int, inner) -> tuple:
        if type(side) is not int or side not in (0, 1):  # a bool is not a side
            raise ValueError(f"side must be 0 or 1, got {side!r}")
        return (side, inner)

    def dist(self, p: tuple, q: tuple) -> float:
        (ps, pi), (qs, qi) = p, q
        if ps == qs:
            comp = self.left if ps == 0 else self.right
            return comp.dist(pi, qi)
        if ps > qs:
            (ps, pi), (qs, qi) = (qs, qi), (ps, pi)
        return self.s + self.left.dist(pi, self.anchors[0]) + self.right.dist(
            self.anchors[1], qi
        )


def bouquet_space(w: int, L: float, h: float) -> BouquetSpace:
    """Wedge of ``w`` circles of circumference ``L``, sampled at step <= h.

    Same-loop distance is arc length min(|s - t|, L - |s - t|); cross-loop
    paths run through the wedge point, so antipodes of distinct loops sit
    at distance exactly L.
    """
    return BouquetSpace(w, L, h)


def wedge_sphere_space(
    w: int, k: int, R: float, n: int = 64, seed: int = 0
) -> WedgeSphereSpace:
    """Wedge of ``w`` round k-spheres of radius ``R`` glued at a pole.

    Sampling is uniform-random on each sphere (``n`` points, seeded) with
    the glue pole and every sphere's antipode always included.
    """
    return WedgeSphereSpace(w, k, R, n, seed)


def interval_space(n: int) -> IntervalSpace:
    """The unit interval with an ``n``-point uniform grid."""
    return IntervalSpace(n)


def graph_space(edges: Iterable[tuple]) -> GraphSpace:
    """Finite connected weighted graph; shortest-path metric on vertices.

    ``edges`` holds (u, v) or (u, v, weight) tuples or lists; weights
    default to 1, and a list vertex is read as a tuple at every depth.
    """
    return GraphSpace(edges)


def disjoint_union(
    left: MetricSpace, right: MetricSpace, s: float
) -> DisjointUnionSpace:
    """Disjoint union of two spaces at separation ``s`` (anchored bridge)."""
    return DisjointUnionSpace(left, right, s)


def _dist_blocks(space: MetricSpace, pts: Sequence) -> Iterator[np.ndarray]:
    """``space.dists(pts, pts)`` as a lazy run of BLOCK-row blocks."""
    return (space.dists(pts[lo : lo + BLOCK], pts) for lo in range(0, len(pts), BLOCK))


def _step_graph(blocks: Iterable[np.ndarray], h: float) -> tuple[list[list[int]], float]:
    """Each point's step neighbours at step ``h`` and the largest distance.

    ``blocks`` are a point list's distance rows against all its points, in
    order and BLOCK rows at a time (``_dist_blocks``): row i's indices with
    d <= h are point i's neighbours.  Every metric here is symmetric bit
    for bit with d(p, p) = 0, so the graph is undirected and the largest
    entry is the diameter of the points.
    """
    nbrs, far = [], 0.0
    for block in blocks:
        far = max(far, float(block.max()))
        rows, cols = np.nonzero(block <= h)
        ends = np.bincount(rows, minlength=len(block)).cumsum().tolist()
        cols = cols.tolist()
        nbrs.extend(cols[start:end] for start, end in zip([0] + ends, ends))
    return nbrs, far


def support_check(space: MetricSpace, pts: Sequence, h: float) -> tuple[bool, float]:
    """Chain connectivity at step ``h`` (a BFS over the step graph) and
    diameter of a nonempty point list, from one ``_step_graph`` pass over
    lazily made distance blocks, so only one block is alive at a time."""
    if not h > 0:  # NaN fails too
        raise ValueError(f"step bound must be positive, got h={h}")
    if not pts:
        raise ValueError("support_check of an empty point list")
    nbrs, diameter = _step_graph(_dist_blocks(space, pts), h)
    seen, stack = {0}, [0]
    while stack:
        for j in nbrs[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(pts), diameter
