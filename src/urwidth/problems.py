"""Margin classification problems on the model spaces.

A ``MarginProblem`` is an ordered list of K closed class sets with a
margin gamma: every pair of classes sits at distance strictly greater
than gamma, which makes the closed gamma/2 safe neighbourhoods pairwise
disjoint.  A class is its analytic pieces (balls around centers, or
closed segments of the unit interval) and one representative point per
piece.  Every point-to-class distance comes from one kernel,
``piece_gaps``, over a list of pieces and a batch of points.  A pass
calls it once per run of classes whose pieces-by-points cells fit
``GAP_CELLS``: ``class_gaps`` is one pass over its points, and the
first ``safe_points`` call is the one pass over the sample set.  It finds
every class's safe sample points and the pieces that hold no sample
point, whose representatives join the safe set so no class is empty, and
each sample point's least class gap, which screens the ball-cover pool,
although it fills the cache one class per call.  ``safe_labels`` labels
any batch of points.  Membership and pairwise class distances use the
analytic description, so the separation lower bound does not depend on
the sampling resolution; a covering, and so the upper bound, covers only
the sampled safe points.
``pair_table`` holds the class-pair distances, built once per problem
and read by both ``validate_margin`` and the separation lower bound.

Families:

* ``bouquet_problem``    -- one safe ball of radius gamma/4 around each
  loop's antipode; pairwise class distance L - gamma/2.
* ``scaled_problem``     -- m balls per loop, spaced L/(2m) along the
  semicircle opposite the wedge point (every center >= L/4 from it).
* ``wedge_problem``      -- one ball per sphere at the antipode of the pole.
* ``interval_union_problem`` -- binary problem on [0, 1]: the positive
  class is a union of closed intervals, the negative class is the grid
  beyond their gamma-neighbourhood (with one grid step of clearance so
  the margin stays strict).
* ``permuted_problem``   -- same geometry, labels pushed through a
  permutation.
* ``union_problem``      -- two problems living on a separated disjoint
  union, classes relabelled consecutively.

``FAMILIES`` registers every family by name: its constructor, whose
signature lists the family's parameters, its class count K as a function
of those parameters and, for the bouquet, scaled and wedge families, the
admissible window of the locality scale D0.  ``make_problem`` rebuilds
any problem from its ``FamilyTag``, ``class_count`` reads K without
building anything and ``parameter_window`` reads a family's window.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from numbers import Real
from operator import index
from typing import Callable, Sequence

import numpy as np

from .spaces import (
    BLOCK,
    MetricSpace,
    bouquet_space,
    disjoint_union,
    interval_space,
    wedge_sphere_space,
)

__all__ = [
    "TOL",
    "BallPiece",
    "SegmentPiece",
    "LiftedPiece",
    "ClassRegion",
    "FamilyTag",
    "MarginProblem",
    "MarginReport",
    "bouquet_problem",
    "scaled_problem",
    "wedge_problem",
    "interval_union_problem",
    "validate_margin",
    "permuted_problem",
    "union_problem",
    "Window",
    "Family",
    "FAMILIES",
    "parameter_window",
    "make_problem",
    "class_count",
]

# absolute slack for closed-set membership tests under float arithmetic
TOL = 1e-9


@dataclass(frozen=True)
class BallPiece:
    """Closed geodesic ball {x : d(x, center) <= radius}."""

    center: object
    radius: float


@dataclass(frozen=True)
class SegmentPiece:
    """Closed subinterval [lo, hi] of the unit interval."""

    lo: float
    hi: float


@dataclass(frozen=True)
class LiftedPiece:
    """A piece living on one side of a disjoint union, with its distance
    from that side's anchor, the one point every path to the other side
    passes through."""

    side: int
    piece: object
    anchor_gap: float


def piece_gaps(space: MetricSpace, pieces: Sequence, pts: Sequence) -> np.ndarray:
    """(len(pieces), len(pts)) array: row i holds the analytic distance from
    every point of ``pts`` to ``pieces[i]``.

    Ball pieces share one ``space.dists`` call and segment pieces one array
    expression.  Lifted pieces are grouped by side: each side's points take
    the bridge to their anchor once, for all pieces on the other side.
    """
    rows = {kind: [i for i, pc in enumerate(pieces) if isinstance(pc, kind)]
            for kind in (BallPiece, SegmentPiece, LiftedPiece)}
    if sum(map(len, rows.values())) < len(pieces):
        odd = next(pc for pc in pieces if not isinstance(pc, tuple(rows)))
        raise TypeError(f"unknown piece type {type(odd).__name__}")
    parts = []
    for kind, idx in rows.items():
        group = [pieces[i] for i in idx]
        if not group:
            continue
        if kind is BallPiece:
            gaps = space.dists([pc.center for pc in group], pts)
            gaps -= np.array([pc.radius for pc in group], dtype=float)[:, None]
            gaps = np.maximum(0.0, gaps, out=gaps)
        elif kind is SegmentPiece:
            x = np.array(pts, dtype=float)
            lo = np.array([[pc.lo] for pc in group], dtype=float)
            hi = np.array([[pc.hi] for pc in group], dtype=float)
            gaps = np.maximum(np.maximum(lo - x, x - hi), 0.0)
        else:
            gaps = _lifted_gaps(space, group, pts)
        parts.append((idx, gaps))
    if len(parts) == 1:  # one kind: its rows are all the rows, in order
        return parts[0][1]
    out = np.empty((len(pieces), len(pts)))
    for idx, gaps in parts:
        out[idx] = gaps
    return out


def _lifted_gaps(space: MetricSpace, pieces: list, pts: Sequence) -> np.ndarray:
    """``piece_gaps`` of lifted pieces on a disjoint union: a point on a
    piece's own side takes the component's distance, a point on the other
    side the bridge to its anchor plus the piece's anchor gap."""
    out = np.empty((len(pieces), len(pts)))
    homes = np.array([pc.side for pc in pieces], dtype=int)
    sides = np.array([side for side, _ in pts], dtype=int)
    for side, own in enumerate((space.left, space.right)):
        idx = np.flatnonzero(sides == side)
        inner = [pts[i][1] for i in idx.tolist()]
        home, away = np.flatnonzero(homes == side), np.flatnonzero(homes != side)
        if home.size:
            out[np.ix_(home, idx)] = piece_gaps(own, [pieces[i].piece for i in home], inner)
        if away.size:
            bridge = space.s + own.dists(inner, [space.anchors[side]])[:, 0]
            gaps = np.array([pieces[i].anchor_gap for i in away], dtype=float)
            out[np.ix_(away, idx)] = bridge + gaps[:, None]
    return out


# The most (piece, point) cells one ``piece_gaps`` call of ``_class_pass``
# spans, 2**15 floats: classes are taken a run at a time, at least one per run,
# so a sample set of 10**6 points is still read one class at a time.
GAP_CELLS = 512 * BLOCK


def _class_pass(space: MetricSpace, classes: Sequence[tuple], pts: Sequence,
                keep: Callable[[np.ndarray, np.ndarray], object]) -> list:
    """``keep(rows, gap)`` of each class, a tuple of pieces, in order: its
    pieces' ``piece_gaps`` rows over ``pts`` and their minimum, the class
    gap.  One kernel call serves each run of classes whose cells fit
    ``GAP_CELLS``, and a run's rows are let go before the next run's.
    ``class_gaps`` keeps the gaps; ``safe_points`` keeps the safe indices
    and which pieces hold a point, and takes the least gap of each point
    over the classes as the pass goes."""
    runs, cells = [[]], 0
    for pieces in classes:
        if runs[-1] and cells + len(pieces) * len(pts) > GAP_CELLS:
            runs.append([])
            cells = 0
        runs[-1].append(pieces)
        cells += len(pieces) * len(pts)
    kept = []
    for run in runs:
        rows = piece_gaps(space, [pc for pieces in run for pc in pieces], pts)
        at = 0
        for pieces in run:
            end = at + len(pieces)
            kept.append(keep(rows[at:end], np.minimum.reduce(rows[at:end])))
            at = end
        del rows
    return kept


def piece_pair_dist(space: MetricSpace, a, b) -> float:
    """Analytic distance between two class pieces.

    Exact in the geodesic spaces used here: both balls and segments are
    geodesically convex, so set distance reduces to center/endpoint
    arithmetic.
    """
    if isinstance(a, LiftedPiece) and isinstance(b, LiftedPiece):
        if a.side == b.side:
            comp = (space.left, space.right)[a.side]
            return piece_pair_dist(comp, a.piece, b.piece)
        return space.s + a.anchor_gap + b.anchor_gap
    if isinstance(a, BallPiece) and isinstance(b, BallPiece):
        return max(0.0, space.dist(a.center, b.center) - a.radius - b.radius)
    if isinstance(a, SegmentPiece) and isinstance(b, SegmentPiece):
        return max(0.0, b.lo - a.hi, a.lo - b.hi)
    raise TypeError(
        f"cannot mix piece types {type(a).__name__} and {type(b).__name__}"
    )


@dataclass
class ClassRegion:
    """One labelled class: analytic pieces and one representative point of
    each, the point ``safe_points`` adds when its piece holds no sample."""

    label: int
    pieces: tuple
    reps: tuple


@dataclass
class FamilyTag:
    name: str
    params: dict
    sigma: tuple | None = None


@dataclass
class MarginProblem:
    space: MetricSpace
    gamma: float
    regions: list[ClassRegion]
    family: FamilyTag
    _safe_cache: dict = field(default_factory=dict, repr=False)
    # sample point -> first slot whose cached safe set holds it
    _safe_slot: dict = field(default_factory=dict, repr=False)
    # each slot's safe sample indices and, per piece, whether some sample
    # point lies in it: one ``_class_pass`` on first use
    _safe_rows: list | None = field(default=None, repr=False)
    # each sample point's least class gap, the running minimum of that pass
    _least_gap: np.ndarray | None = field(default=None, repr=False)
    _pair_cache: dict | None = field(default=None, repr=False)

    @property
    def k(self) -> int:
        return len(self.regions)

    @property
    def labels(self) -> list[int]:
        return [r.label for r in self.regions]

    def pair_table(self) -> dict:
        """Analytic distance of each class-slot pair, keyed (i, j) with i < j
        in row order; built on first use and kept.  Callers must not mutate it."""
        if self._pair_cache is None:
            self._pair_cache = {
                (i, j): min(piece_pair_dist(self.space, pa, pb)
                            for pa in self.regions[i].pieces for pb in self.regions[j].pieces)
                for i in range(self.k) for j in range(i + 1, self.k)
            }
        return self._pair_cache

    def class_gaps(self, pts: Sequence) -> np.ndarray:
        """(K, len(pts)) array: row j holds each point's distance to class slot j."""
        pieces = [r.pieces for r in self.regions]
        return np.array(_class_pass(self.space, pieces, pts, lambda _, gap: gap))

    def safe_labels(self, pts: Sequence) -> list:
        """Label of the first safe region containing each point, or None.

        Sample points are looked up in the cached safe sets; all other
        points share one ``class_gaps`` call."""
        return [None if j is None else self.regions[j].label for j in self._safe_slots(pts)[0]]

    def _safe_slots(self, pts: Sequence) -> tuple[list, list[int], np.ndarray]:
        """First safe slot of each point or None, the indices ``rest`` of the
        points that missed the cached safe sets, and their ``class_gaps``."""
        if len(self._safe_cache) < self.k:
            self.all_safe_points()
        slots = [self._safe_slot.get(x) for x in pts]
        rest = [i for i, j in enumerate(slots) if j is None]
        gaps = self.class_gaps([pts[i] for i in rest]) if rest else np.empty((self.k, 0))
        for i, col in zip(rest, (gaps <= self.gamma / 2 + TOL).T.tolist()):
            slots[i] = col.index(True) if True in col else None
        return slots, rest, gaps

    def safe_points(self, j: int) -> list:
        """Sampled safe set of class slot ``j``, then the representative of
        each of its pieces that holds no sample point, so it is never empty.

        The first call makes the one pass over the sample set for every
        class.  It also keeps, in ``_least_gap``, each sample point's least
        class gap, its distance to the union of the classes, as a running
        minimum over the classes; the ball-cover search screens its pool
        with it."""
        if j not in self._safe_cache:
            sample = self.space.sample_set
            if self._safe_rows is None:
                least = np.full(len(sample), np.inf)

                def keep(rows, gap):
                    np.minimum(least, gap, out=least)
                    return (np.flatnonzero(gap <= self.gamma / 2 + TOL).tolist(),
                            (rows <= TOL).any(axis=1).tolist())

                self._safe_rows = _class_pass(
                    self.space, [r.pieces for r in self.regions], sample, keep)
                self._least_gap = least
            idx, held = self._safe_rows[j]
            pts = [sample[i] for i in idx]
            self._safe_slot.update((x, j) for x in pts if self._safe_slot.get(x, j) >= j)
            have = set(pts)
            for rep, holds in zip(self.regions[j].reps, held):
                if not holds and rep not in have:
                    pts.append(rep)
                    have.add(rep)
            self._safe_cache[j] = pts
        return self._safe_cache[j]

    def all_safe_points(self) -> list[tuple]:
        """All sampled safe points as (slot index, point) pairs."""
        return [(j, x) for j in range(self.k) for x in self.safe_points(j)]


@dataclass
class MarginReport:
    gamma: float
    pair_table: dict
    min_pair: float
    strict_pass: bool
    worst_pair: tuple | None
    notes: list[str]


def _ball_regions(centers: Sequence, radius: float) -> list[ClassRegion]:
    """Classes 1..K, class j the closed ball of ``radius`` around ``centers[j - 1]``."""
    return [ClassRegion(j, (BallPiece(c, radius),), (c,)) for j, c in enumerate(centers, 1)]


def bouquet_problem(w: int, L: float, gamma: float, h: float) -> MarginProblem:
    """K = w classes, one ball of radius gamma/4 around each loop's antipode."""
    # margins above L/10 make loops comparable to the margin scale; the
    # reference instances sit exactly at gamma = L/10, so equality is allowed
    if not 0 < gamma <= L / 10:
        raise ValueError(f"need 0 < gamma <= L/10 = {L / 10}, got gamma={gamma}")
    space = bouquet_space(w, L, h)
    regions = _ball_regions([space.antipode(j) for j in range(1, w + 1)], gamma / 4)
    return MarginProblem(
        space, gamma, regions, FamilyTag("bouquet", {"w": w, "L": L, "gamma": gamma, "h": h})
    )


def scaled_center_positions(m: int, L: float) -> list[float]:
    """Arc positions of the m per-loop centers, measured from the wedge point.

    For m >= 2 the centers sit on the semicircle opposite the wedge point
    at spacing L/(2m) starting at L/4; the degenerate m = 1 case is the
    plain antipode, so the family collapses to the one-ball-per-loop
    construction.
    """
    if m == 1:
        return [L / 2]
    return [L / 4 + (r - 1) * L / (2 * m) for r in range(1, m + 1)]


def scaled_problem(w: int, m: int, L: float, gamma: float, h: float) -> MarginProblem:
    """K = w*m classes: m balls per loop on the far semicircle."""
    if m < 1 or w < 1:
        raise ValueError(f"need w, m >= 1, got w={w}, m={m}")
    if not gamma > 0:  # NaN fails too
        raise ValueError(f"gamma must be positive, got gamma={gamma}")
    if L / m <= 3 * gamma:
        raise ValueError(
            f"spacing constraint violated: need L/m > 3*gamma, "
            f"got L/m = {L / m} vs 3*gamma = {3 * gamma}"
        )
    space = bouquet_space(w, L, h)
    positions = scaled_center_positions(m, L)
    centers = [space.point(loop, s) for loop in range(1, w + 1) for s in positions]
    regions = _ball_regions(centers, gamma / 4)
    return MarginProblem(
        space,
        gamma,
        regions,
        FamilyTag("scaled", {"w": w, "m": m, "L": L, "gamma": gamma, "h": h}),
    )


def wedge_problem(
    w: int, k: int, R: float, gamma: float, n: int = 64, seed: int = 0
) -> MarginProblem:
    """K = w classes on a wedge of k-spheres, one ball per antipode."""
    space = wedge_sphere_space(w, k, R, n=n, seed=seed)  # names a bad R first
    if not gamma > 0:  # NaN fails too
        raise ValueError(f"gamma must be positive, got gamma={gamma}")
    if parameter_window("wedge", R=R, gamma=gamma).empty:
        raise ValueError(
            f"gamma={gamma} too large for sphere radius R={R}: "
            "the admissible locality window is empty"
        )
    regions = _ball_regions([space.antipode(j) for j in range(1, w + 1)], gamma / 4)
    return MarginProblem(
        space,
        gamma,
        regions,
        FamilyTag(
            "wedge", {"w": w, "k": k, "R": R, "gamma": gamma, "n": n, "seed": seed}
        ),
    )


def interval_union_problem(
    intervals: Sequence[tuple[float, float]], gamma: float, n_pts: int
) -> MarginProblem:
    """Binary problem on the unit interval induced by a union of intervals.

    Positive class: the intervals themselves.  Negative class: everything
    at distance > gamma from them, pulled back by one grid step so the
    pairwise margin is strictly greater than gamma even on aligned grids.
    """
    if not gamma > 0:  # NaN fails too
        raise ValueError("gamma must be positive")
    if not isinstance(intervals, (list, tuple)):
        raise ValueError(f"intervals must be a list of [lo, hi] pairs, got {intervals!r}")
    for ab in intervals:
        if not isinstance(ab, (list, tuple)) or len(ab) != 2 or any(
            isinstance(v, bool) or not isinstance(v, Real) for v in ab
        ):
            raise ValueError(f"interval {ab!r} is not a [lo, hi] pair of numbers")
    ivs = sorted((float(a), float(b)) for a, b in intervals)
    if not ivs:
        raise ValueError("need at least one interval")
    for a, b in ivs:
        if not (0.0 <= a <= b <= 1.0):
            raise ValueError(f"interval [{a}, {b}] not inside [0, 1]")
    for (_, b1), (a2, _) in zip(ivs, ivs[1:]):
        if a2 - b1 <= gamma:
            raise ValueError(
                f"intervals under-separated: gap {a2 - b1} <= gamma = {gamma}"
            )
    space = interval_space(n_pts)
    h = space.resolution
    clearance = gamma + h  # one grid step beyond the gamma-neighbourhood
    neg_pieces = []
    cursor = 0.0
    for a, b in ivs + [(1.0 + 2 * clearance, 1.0 + 2 * clearance)]:
        lo, hi = cursor, min(a - clearance, 1.0)
        if hi >= lo:
            neg_pieces.append(SegmentPiece(lo, hi))
        cursor = b + clearance
        if cursor > 1.0:
            break
    if not neg_pieces:
        raise ValueError(
            "negative class is empty: the intervals plus clearance cover [0, 1]"
        )
    pos_pieces = tuple(SegmentPiece(a, b) for a, b in ivs)
    pos_reps = tuple((a + b) / 2 for a, b in ivs)
    neg_reps = tuple((pc.lo + pc.hi) / 2 for pc in neg_pieces)
    regions = [ClassRegion(1, pos_pieces, pos_reps), ClassRegion(2, tuple(neg_pieces), neg_reps)]
    return MarginProblem(
        space,
        gamma,
        regions,
        FamilyTag(
            "interval_union",
            {"intervals": [list(ab) for ab in ivs], "gamma": gamma, "n_pts": n_pts},
        ),
    )


def validate_margin(problem: MarginProblem) -> MarginReport:
    """Check the strict margin condition; reports, never raises.

    The report carries a copy of the analytic pairwise-distance table and the
    strict-pass flag (min pairwise distance > gamma).  The gamma/2 safe
    neighbourhoods are pairwise disjoint exactly when it holds: on finite
    floats d - gamma > 0 iff d > gamma.
    """
    gamma = problem.gamma
    table = dict(problem.pair_table())
    worst, min_pair = None, math.inf
    for pair, d in table.items():
        if d < min_pair:
            min_pair, worst = d, pair
    notes = []
    if problem.family.name == "scaled":
        m = problem.family.params["m"]
        L = problem.family.params["L"]
        notes.append(
            f"same-loop center spacing in use: L/(2m) = {L / (2 * m)}"
            f" (full-loop equal spacing would be L/m = {L / m})"
        )
    return MarginReport(
        gamma=gamma,
        pair_table=table,
        min_pair=min_pair,
        strict_pass=min_pair > gamma,
        worst_pair=worst,
        notes=notes,
    )


def permuted_problem(problem: MarginProblem, sigma: Sequence[int]) -> MarginProblem:
    """Relabel classes by a permutation of [K]; geometry is untouched.

    ``sigma[j]`` is the new label of the class currently labelled j+1
    (1-based), i.e. geometric slot j receives label sigma[j].  Each entry
    must be an integer, not a bool: ``int`` would take 2.9 and "2" as 2.
    """
    k = problem.k
    try:
        if any(isinstance(x, bool) for x in sigma):
            raise TypeError
        sig = tuple(map(index, sigma))
    except TypeError:
        raise ValueError(f"sigma {sigma!r} must hold integer labels") from None
    if sorted(sig) != list(range(1, k + 1)):
        raise ValueError(f"sigma {sig} is not a bijection on 1..{k}")
    regions = [ClassRegion(sig[j], r.pieces, r.reps) for j, r in enumerate(problem.regions)]
    tag = FamilyTag(problem.family.name, dict(problem.family.params), sigma=sig)
    return MarginProblem(problem.space, problem.gamma, regions, tag)


def union_problem(
    left: MarginProblem, right: MarginProblem, s: float
) -> MarginProblem:
    """Combine two problems on a separated disjoint union of their spaces.

    Left classes keep labels 1..K_left; right classes are shifted up.
    Requires equal margins.
    """
    if left.gamma != right.gamma:
        raise ValueError(
            f"margins differ: {left.gamma} vs {right.gamma}; cannot combine"
        )
    space = disjoint_union(left.space, right.space, s)
    regions = []
    for side, src, offset in ((0, left, 0), (1, right, left.k)):
        pieces = [pc for r in src.regions for pc in r.pieces]
        gaps = iter(piece_gaps(src.space, pieces, [space.anchors[side]])[:, 0].tolist())
        for r in src.regions:
            pieces = tuple(LiftedPiece(side, pc, next(gaps)) for pc in r.pieces)
            regions.append(ClassRegion(r.label + offset, pieces, tuple((side, x) for x in r.reps)))
    tag = FamilyTag(
        "union",
        {"s": s, "left": left.family.__dict__, "right": right.family.__dict__},
    )
    return MarginProblem(space, left.gamma, regions, tag)


def _side(tag) -> dict:
    """A union side's family tag, once it has exactly the keys of one."""
    if not isinstance(tag, dict) or set(tag) != {"name", "params", "sigma"}:
        raise ValueError("a union side must be a family tag with keys name, params, sigma")
    return tag


def _union_from_tags(s: float, left: dict, right: dict) -> MarginProblem:
    """``union_problem`` of the two sides that the family tags describe."""
    return union_problem(*(make_problem(**_side(tag)) for tag in (left, right)), s)


def _union_classes(left: dict, right: dict, **_) -> int:
    return sum(class_count(t["name"], t["params"]) for t in map(_side, (left, right)))


@dataclass
class Window:
    lo: float
    hi: float
    note: str = ""

    @property
    def empty(self) -> bool:
        return not self.lo < self.hi

    def contains(self, d0: float) -> bool:
        return self.lo <= d0 < self.hi


@dataclass(frozen=True)
class Family:
    """A registered family; a ``FamilyTag`` rebuilds as ``build(**params)``."""

    build: Callable[..., MarginProblem]
    # the class count K of ``build(**params)``, read from the params alone
    classes: Callable[..., int]
    # upper end of the D0 window, a function of the params it names, and the
    # requirement an empty window reports; the lower end is always 3*gamma/2
    window_hi: Callable[..., float] | None = None
    window_needs: str = ""


FAMILIES = {
    "bouquet": Family(bouquet_problem, lambda w, **_: index(w),
                      lambda L, gamma: L / 2 - 0.75 * gamma,
                      "requires L > 9*gamma/2"),
    "scaled": Family(scaled_problem, lambda w, m, **_: index(w) * index(m),
                     lambda L, m, gamma: min(L / (2 * m) - 1.5 * gamma, L / 4 - 0.75 * gamma),
                     "loop spacing too tight"),
    "wedge": Family(wedge_problem, lambda w, **_: index(w),
                    lambda R, gamma: math.pi * R - 0.75 * gamma,
                    "requires pi*R > 9*gamma/4"),
    "interval_union": Family(interval_union_problem, lambda **_: 2),
    "union": Family(_union_from_tags, _union_classes),
}


# each family's parameters, read once from its constructor's signature: the
# keyword arguments of ``build`` in order, and the ones it annotates as float
_PARAMS = {name: inspect.signature(fam.build, eval_str=True).parameters
           for name, fam in FAMILIES.items()}
_FLOAT_PARAMS = {name: {key for key, p in params.items() if p.annotation is float}
                 for name, params in _PARAMS.items()}


def _float_params(name, params):
    """``params`` with an int given for a float parameter of family ``name``
    as that float, and the params of a union's side tags alike, so a family
    tag, and every artifact written from it, is the same whichever way a
    number is spelled; anything else is left for ``make_problem`` to refuse."""
    floats = _FLOAT_PARAMS.get(name) if isinstance(name, str) else None
    if floats is None or not isinstance(params, dict):
        return params
    out = dict(params)
    for key in floats & out.keys():
        if type(out[key]) is int:
            try:
                out[key] = float(out[key])
            except OverflowError:
                raise ValueError(f"family {name!r} parameter {key!r} does not fit a float, "
                                 f"got {out[key]!r}") from None
    for key in ("left", "right") if name == "union" else ():
        tag = out.get(key)
        if isinstance(tag, dict) and "params" in tag:
            out[key] = {**tag, "params": _float_params(tag.get("name"), tag["params"])}
    return out


def parameter_window(family: str, /, **params) -> Window:
    """Admissible D0 interval [lo, hi) for a problem family.

    bouquet: [3g/2, L/2 - 3g/4); scaled: [3g/2, min(L/(2m) - 3g/2,
    L/4 - 3g/4)); wedge: [3g/2, pi*R - 3g/4).  Only the parameters the
    window reads are needed, others are ignored.  An empty interval is
    signalled explicitly via ``empty`` with a note on the requirement.
    """
    fam = FAMILIES.get(family)
    if fam is None or fam.window_hi is None:
        windowed = [name for name, f in FAMILIES.items() if f.window_hi]
        raise ValueError(f"family {family!r} has no D0 window; expected one of {windowed}")
    args = {name: params[name] for name in inspect.signature(fam.window_hi).parameters}
    lo, hi = 1.5 * args["gamma"], fam.window_hi(**args)
    if lo < hi:
        return Window(lo, hi)
    shown = ", ".join(f"{name}={value}" for name, value in args.items())
    return Window(lo, hi, f"empty window: {fam.window_needs} ({shown})")


def make_problem(name: str, params: dict, sigma: Sequence[int] | None = None) -> MarginProblem:
    """Build the problem a ``FamilyTag`` describes.

    ``params`` must hold exactly the registered parameters of ``name``;
    ``union`` takes ``s`` plus ``left`` and ``right`` tags (name, params,
    sigma) and rebuilds both sides first.  ``sigma`` is None (no
    relabelling) or a list or tuple that ``permuted_problem`` accepts, so
    ``false``, ``0``, ``""`` and ``[]`` from a document are refused.  An
    int given for a float parameter is read as that float; a bool given
    for any parameter, a union side's included, is refused.
    Raises ValueError on anything it cannot rebuild exactly.
    """
    fam = _family(name, params)
    if sigma is not None and not isinstance(sigma, (list, tuple)):
        raise ValueError(f"sigma {sigma!r} must hold integer labels in a list, or be null")
    p = fam.build(**_float_params(name, params))
    assert p.k == fam.classes(**params), f"family {name!r} built {p.k} classes"
    return p if sigma is None else permuted_problem(p, sigma)


def class_count(name: str, params: dict) -> int:
    """Class count K of ``make_problem(name, params)``, from the parameters
    alone: nothing is built, so it costs the same at any K.  Raises
    ValueError on a family or parameter set ``make_problem`` refuses, and
    TypeError on a size parameter that is not an integer."""
    return _family(name, params).classes(**params)


def _family(name: str, params: dict) -> Family:
    """The registered family ``name``, once ``params`` holds exactly its
    parameters and none of them is a bool."""
    if name not in FAMILIES:
        raise ValueError(f"unknown problem family {name!r}")
    names = _PARAMS[name]
    if not isinstance(params, dict) or set(params) != set(names):
        got = sorted(params) if isinstance(params, dict) else type(params).__name__
        raise ValueError(f"family {name!r} takes parameters {sorted(names)}, got {got}")
    for key, value in params.items():  # as in a run config: a bool is not a number
        if isinstance(value, bool):
            raise ValueError(f"family {name!r} parameter {key!r} must not be a boolean, "
                             f"got {value!r}")
    return FAMILIES[name]
