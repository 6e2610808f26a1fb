"""Urysohn coverings and two-sided width certificates.

A covering is a list of triples (support point set, label set, point
assignment); it is valid for a margin problem when every support is
chain-connected and of diameter <= D0, the supports jointly cover every
sampled safe point, and the assignment agrees with the safe label
wherever a support meets a safe set.  The width of the problem is the
minimum number of such triples.  ``verify_covering`` reads each support's
connectivity and diameter from one blocked pass over its distance matrix
(``support_check``) and the safe labels of all support points from one
``safe_labels`` call; both answer exactly as the pairwise scalar checks
would.

Certificates come in two independent halves:

* lower bound -- if the analytic distance between every pair of safe
  sets exceeds D0, no triple can serve two classes, so any covering
  needs at least K triples.  When some pairs fall within reach of one
  another the bound degrades to the number of connected components of
  the reach graph (a conservative extension, flagged on the
  certificate).
* upper bound -- an explicit covering, either the canonical one (one
  constant-label triple per safe set) or the result of an exact
  minimum-cover search over geodesic-ball candidates (a memoized
  branch-and-bound search over bitmasks up to 24 safe points, pruned by a
  packing bound; greedy with the classical ln-factor beyond).  The pool
  holds only the sample points within D0 + gamma/2 (and a few TOL) of a
  class, the only ones a ball holding a safe point can reach, and the
  off-grid safe points.  The candidates come from one chunked pass over
  the pool's distances, each pair once, shared by the step graph and
  every centre's balls.  Each chunk of centres takes one sort for its balls and one
  chain certificate for their connectivity; a union-find runs only for a
  centre the certificate leaves out.

The bracket is exact when the two halves meet; ``certify`` joins them for
one covering, and both ``width_bracket`` and ``serialize.verify_bracket``
build their bracket through it.  Both halves re-verify from scratch, never
trusting stored intermediates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import accumulate, compress, pairwise
from operator import or_

import numpy as np

from .problems import GAP_CELLS, TOL, MarginProblem, validate_margin
from .spaces import BLOCK, MetricSpace, support_check

__all__ = [
    "UrysohnTriple",
    "UrysohnCovering",
    "TripleCheck",
    "CoveringReport",
    "SeparationCertificate",
    "CoverSearch",
    "WidthBracket",
    "verify_covering",
    "canonical_covering",
    "separation_certificate",
    "min_ball_cover",
    "certify",
    "width_bracket",
]

EXACT_LIMIT = 24  # most safe samples searched by exact dynamic programming


@dataclass
class UrysohnTriple:
    """One metric-library entry: support points, label set, assignment.

    ``assignment`` maps every support point to a label; constant triples
    simply map all points to one label.
    """

    support: list
    labels: tuple
    assignment: dict


@dataclass
class UrysohnCovering:
    triples: list[UrysohnTriple]
    d0: float
    h: float

    @property
    def size(self) -> int:
        return len(self.triples)


@dataclass
class TripleCheck:
    connected: bool
    diameter: float
    diameter_ok: bool


@dataclass
class CoveringReport:
    d0: float
    h: float
    triple_checks: list[TripleCheck]
    uncovered: list
    violations: list

    @property
    def connectivity_ok(self) -> bool:
        return all(t.connected for t in self.triple_checks)

    @property
    def diameters_ok(self) -> bool:
        return all(t.diameter_ok for t in self.triple_checks)

    @property
    def coverage_ok(self) -> bool:
        return not self.uncovered

    @property
    def correctness_ok(self) -> bool:
        return not self.violations

    @property
    def passed(self) -> bool:
        return (
            self.connectivity_ok
            and self.diameters_ok
            and self.coverage_ok
            and self.correctness_ok
        )


def default_step(space: MetricSpace) -> float:
    """Chain-connectivity step: twice the sampling resolution."""
    return 2.0 * space.resolution


def verify_covering(problem: MarginProblem, cov: UrysohnCovering) -> CoveringReport:
    """Re-check all four covering conditions; reports, never raises.

    A step ``h`` that is not positive (NaN included) connects no support;
    each diameter is still measured.
    """
    space, step_ok = problem.space, cov.h > 0
    # any positive step gives the diameter; the least lists only duplicates
    h = cov.h if step_ok else math.ulp(0.0)
    checks = []
    for tri in cov.triples:
        connected, diam = support_check(space, tri.support, h) if tri.support else (False, 0.0)
        checks.append(TripleCheck(connected and step_ok, diam, diam <= cov.d0 + TOL))

    supported = {x for t in cov.triples for x in t.support}
    uncovered = [(problem.regions[j].label, x) for j, x in problem.all_safe_points()
                 if x not in supported]

    wanted = iter(problem.safe_labels([x for t in cov.triples for x in t.support]))
    violations = []
    for i, tri in enumerate(cov.triples):
        for x, want in zip(tri.support, wanted):
            got = tri.assignment.get(x)
            if want is not None and got != want:
                violations.append((i, x, want, got))
    return CoveringReport(cov.d0, cov.h, checks, uncovered, violations)


def canonical_covering(problem: MarginProblem, d0: float) -> UrysohnCovering:
    """One constant-label triple per class, supported on its safe samples."""
    if d0 < 1.5 * problem.gamma - TOL:
        raise ValueError(
            f"D0 = {d0} below 3*gamma/2 = {1.5 * problem.gamma}: "
            "a safe set's connected arc would exceed the locality scale"
        )
    triples = []
    labels = tuple(problem.labels)
    for j in range(problem.k):
        pts = list(problem.safe_points(j))
        lab = problem.regions[j].label
        triples.append(UrysohnTriple(pts, labels, {p: lab for p in pts}))
    return UrysohnCovering(triples, d0, default_step(problem.space))


@dataclass
class SeparationCertificate:
    lb: int
    d0: float
    delta_star: float
    delta_table: dict
    method: str  # "pairwise-separation" or "reach-components" (conservative)
    components: list[list[int]] = field(default_factory=list)


def separation_certificate(problem: MarginProblem, d0: float) -> SeparationCertificate:
    """Lower bound from pairwise safe-set separation.

    delta[i, j] is the analytic distance between the gamma/2 safe sets of
    classes i and j.  If the minimum exceeds D0, every triple meets at
    most one safe set and lb = K; otherwise lb counts the connected
    components of the reach graph (edge iff delta <= D0), since a triple
    can only serve classes inside one reach component.
    """
    k = problem.k
    table = {pair: max(0.0, d - problem.gamma) for pair, d in problem.pair_table().items()}
    delta_star = min(table.values()) if table else math.inf
    if delta_star > d0:
        return SeparationCertificate(
            k, d0, delta_star, table, "pairwise-separation", [[j] for j in range(k)]
        )
    components = _reach_components(k, table, d0)
    return SeparationCertificate(
        len(components), d0, delta_star, table, "reach-components", components
    )


def _reach_components(k: int, table: dict, d0: float) -> list[list[int]]:
    """Connected components of the reach graph on slots 0..k-1 (edge iff
    ``table[i, j] <= d0``), each sorted, in order of their least slot."""
    root = list(range(k))

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]  # path halving
        return i

    for (i, j), d in table.items():
        if d <= d0:
            root[find(i)] = find(j)
    groups = {}
    for j in range(k):  # ascending, so each group is born sorted
        groups.setdefault(find(j), []).append(j)
    return sorted(groups.values())


@dataclass
class CoverSearch:
    method: str  # "exact-dp" or "greedy"
    size: int
    universe: int
    n_candidates: int
    chosen: list


def _candidate_balls(problem, d0):
    """Geodesic-ball candidates: (mask, near, size) triples, deduplicated.

    Centres are the sample points and radii run up the half-resolution
    ladder to D0/2; a candidate must be chain-connected at the default step
    and of diameter <= D0.  Only points near a safe point can matter, so
    the pool is screened: it holds the sample points whose least class gap
    (kept by the safe pass) is at most D0 + gamma/2 plus a few TOL, in
    sample order, then the safe points off the sample set (off-grid class
    representatives), in ``universe`` order.  The screen is exact.  A
    class gap is a distance to a set, so it is 1-Lipschitz.  A ball (a
    radius of at most D0/2 plus step * TOL, and TOL on its cut) that holds
    a safe point s, whose gap is at most gamma/2 + TOL, lies within D0 +
    2 (step + 1) TOL of s, so every point of it passes.  A centre whose
    ball holds a safe point passes too, and the others give only empty
    masks.  The screen keeps the pool's order, so (distance, index) ties
    break as they would over the whole sample set.  The ladder stops at the largest pool distance when that is below D0/2:
    a ball past it is the whole pool.

    The pool distances are made ``max(BLOCK, GAP_CELLS // len(pool))``
    rows at a time, one pass whose chunks give both the step graph, as CSR
    arrays, and the centre rows.  The pass takes each pair once: a chunk's
    rows meet the pool from their own first row on, and the columns before
    it are the earlier chunks' rows, transposed, as every metric is
    symmetric bit for bit.  A chunk of centre rows is handled by a fixed
    number of numpy calls.  It first drops each row with no safe
    point inside the largest ball's ``<=`` cut, as all its masks would be
    empty.  One ``lexsort`` puts the rest's ball entries in (row, distance,
    index) order, so a centre's balls are the prefixes of ``near``, its
    pool indices in that order, and masks are prefix ORs of the safe bits;
    a bincount of (row, first bound that holds the entry) gives every
    ball's size, and a size that repeats down the ladder is the same ball,
    so it is taken once.  The chain certificate asks, for each entry,
    whether some step neighbour comes earlier in (distance, index) order:
    when only the row's first point has none, every point chains down to
    it, so every prefix is chain-connected.  Such a neighbour lies inside
    the ball, so the screen keeps it.  A row without the certificate falls
    back to ``_prefix_components``, a union-find that adds each ball's new
    points.  A candidate keeps only its mask, ``near`` and ``size``;
    ``_ball_support`` builds its points, here only for an exact-diameter
    check.
    """
    space = problem.space
    h = default_step(space)
    universe = problem.all_safe_points()  # the safe pass keeps ``_least_gap``
    step = space.resolution / 2
    # a radius is at most D0/2 + step * TOL, and a ball takes TOL more, so a
    # ball that holds a safe point lies within D0 + 2 (step + 1) TOL of it
    reach = problem.gamma / 2 + d0 + (2 * step + 4) * TOL
    near_safe = problem._least_gap <= reach
    sample = space.sample_set
    pool = sample if near_safe.all() else list(compress(sample, near_safe.tolist()))
    n_centres = len(pool)
    known = set(pool)
    extra = list(dict.fromkeys(x for _, x in universe if x not in known))
    pool = pool + extra if extra else pool
    bit = {x: i for i, (_, x) in enumerate(universe)}
    pool_bits = [1 << bit[x] if x in bit else 0 for x in pool]
    safe = np.array([k for k, x in enumerate(pool) if x in bit], dtype=np.intp)
    span = max(BLOCK, GAP_CELLS // len(pool))
    starts = range(0, len(pool), span)
    # each pair once, as every metric is symmetric bit for bit; the first
    # chunk reads the pool itself, whose coordinates a space may have cached
    chunks = []
    for lo in starts:
        chunk = space.dists(pool[lo : lo + span], pool[lo:] if lo else pool)
        if lo:
            chunk = np.concatenate([prior[:, lo : lo + span].T for prior in chunks] + [chunk],
                                   axis=1)
        chunks.append(chunk)
    # the step graph as CSR arrays: point k's neighbours are adj[ptr[k]:ptr[k + 1]],
    # k itself among them, since d(k, k) = 0
    edges = [np.nonzero(chunk <= h) for chunk in chunks]
    degree = np.concatenate([np.bincount(rows, minlength=len(chunk))
                             for (rows, _), chunk in zip(edges, chunks)])
    ptr = np.concatenate(([0], degree.cumsum()))
    adj = np.concatenate([cols for _, cols in edges])
    nbrs = None  # per-point neighbour lists, made for the first row without the certificate
    far = max(float(chunk.max()) for chunk in chunks)  # every ball past it is the whole pool
    top = min(d0 / 2, far)
    radii = [step * i for i in range(1, int(math.floor(top / step + TOL)) + 1)]
    if not radii or radii[-1] < d0 / 2 - TOL:
        radii.append(d0 / 2)
    bounds = np.array([r + TOL for r in radii])
    n_radii = len(bounds)
    candidates = []
    seen_masks = set()
    for start, chunk in zip(starts, chunks):
        if start >= n_centres:  # only off-grid points are left, and they are no centres
            break
        rows = chunk[: n_centres - start]
        sel = rows[(rows[:, safe] <= bounds[-1]).any(axis=1)]
        n_rows = len(sel)
        if not n_rows:
            continue
        row, col = np.nonzero(sel <= bounds[-1])
        d = sel[row, col]
        order = np.lexsort((d, row))  # stable: equal distances keep index order
        row, col, d = row[order], col[order], d[order]
        # ball sizes: entries per (row, first bound that holds them), summed up the ladder
        sizes = np.bincount(row * n_radii + np.searchsorted(bounds, d, "left"),
                            minlength=n_rows * n_radii).reshape(n_rows, n_radii).cumsum(axis=1)
        # chain certificate: each entry's step edges, against its own distance and index
        deg = degree[col]
        first = deg.cumsum() - deg
        edge = np.arange(first[-1] + deg[-1]) - np.repeat(first - ptr[col], deg)
        j = adj[edge]
        dj = sel[np.repeat(row, deg), j]
        dk = np.repeat(d, deg)
        earlier = (dj < dk) | ((dj == dk) & (j < np.repeat(col, deg)))
        lonely = np.bincount(row[~np.logical_or.reduceat(earlier, first)], minlength=n_rows)
        stops = np.bincount(row, minlength=n_rows).cumsum().tolist()
        col, d = col.tolist(), d.tolist()
        for lo, hi, ends, certified in zip([0] + stops, stops, sizes.tolist(),
                                           (lonely == 1).tolist()):
            near = col[lo:hi]
            masks = list(accumulate(map(pool_bits.__getitem__, near), or_, initial=0))
            if certified:
                components = None
            else:
                if nbrs is None:
                    flat = adj.tolist()
                    nbrs = [flat[a:b] for a, b in pairwise(ptr.tolist())]
                components = _prefix_components(near, nbrs)
            for size in dict.fromkeys(ends):  # a repeated size is the same ball
                mask = masks[size]
                if mask == 0 or mask in seen_masks:
                    continue
                if components is not None and components(size) != 1:
                    continue
                # the triangle inequality bounds the diameter by twice the
                # farthest point's distance; only a ball reaching past D0/2,
                # inside the TOL slack, needs its exact diameter
                if 2 * d[lo + size - 1] > d0:
                    support = _ball_support(pool, near, size)
                    if space.dists(support, support).max() > d0 + TOL:
                        continue
                seen_masks.add(mask)
                candidates.append((mask, near, size))
    return universe, pool, candidates


def _prefix_components(near, nbrs):
    """The union-find fallback of the chain certificate: a function from a
    prefix size of ``near``, asked in ascending order, to the number of
    step components of that prefix; each call joins only the new points."""
    parent = {}  # union-find over the first ``joined`` points of the ball
    components = joined = 0

    def count(size):
        nonlocal components, joined
        for k in near[joined:size]:
            parent[k] = k  # k stays the root of every set it joins
            components += 1
            for j in nbrs[k]:
                if j in parent:
                    while parent[j] != j:
                        parent[j] = j = parent[parent[j]]  # path halving
                    if j != k:
                        parent[j] = k
                        components -= 1
        joined = size
        return components

    return count


def _ball_support(pool, near, size):
    """The points of a candidate ball, in pool order."""
    return [pool[k] for k in sorted(near[:size])]


def min_ball_cover(problem: MarginProblem, d0: float) -> tuple[UrysohnCovering, CoverSearch]:
    """Minimum covering of the sampled safe points by geodesic balls.

    D0 must be finite and >= 0.  The candidates are the balls of
    ``_candidate_balls``, over the sample points near a safe point, so a
    small D0 reads only a small neighbourhood of the safe sets.  The
    search reads only candidate masks: exact branch and bound over
    bitmasks up to ``EXACT_LIMIT`` safe samples, deterministic greedy
    beyond, with the method on the certificate; only the chosen balls'
    supports are built.  Labels come per point from safe membership,
    consistent since safe sets are pairwise disjoint; an unsafe filler
    point takes its nearest class, ties to the lowest slot.
    """
    if not math.isfinite(d0):
        raise ValueError(f"D0 must be finite, got d0={d0}")
    if d0 < 0:
        raise ValueError(f"D0 must be non-negative, got d0={d0}")
    universe, pool, candidates = _candidate_balls(problem, d0)
    n = len(universe)
    full = (1 << n) - 1
    masks = [m for m, _, _ in candidates]
    covered = reduce(or_, masks, 0)
    if covered != full:
        missing = [universe[i] for i in range(n) if not (covered >> i) & 1]
        raise ValueError(
            f"candidate family cannot cover the safe region; uncovered: {missing}"
        )

    if n <= EXACT_LIMIT:
        chosen = _exact_cover(full, masks)
        method = "exact-dp"
    else:
        chosen = _greedy_cover(full, masks)
        method = "greedy"

    supports = [_ball_support(pool, *candidates[ci][1:]) for ci in chosen]
    flat = [x for support in supports for x in support]
    slots, rest, gaps = problem._safe_slots(flat)
    # unsafe filler points: nearest class, ties to the lowest slot, from the
    # class gaps that the safe lookup already took
    for i, j in zip(rest, gaps.argmin(axis=0).tolist()):
        if slots[i] is None:
            slots[i] = j
    labels = tuple(problem.labels)
    wanted = (labels[j] for j in slots)
    triples = [UrysohnTriple(support, labels, {x: next(wanted) for x in support})
               for support in supports]
    cov = UrysohnCovering(triples, d0, default_step(problem.space))
    info = CoverSearch(method, len(chosen), n, len(candidates), list(chosen))
    return cov, info


def _exact_cover(full: int, masks: list[int]) -> list[int]:
    """Exact minimum set cover: memoized recursion over the uncovered mask,
    branching on the least-covered element, ties to the lowest index.

    Elements are relabelled once by (cover count, index), so that element
    is the lowest set bit of the relabelled mask.  A branch is skipped when
    one plus the ``_packing_bound`` of what it leaves reaches the length of
    the best cover found so far: it cannot be strictly shorter, and only a
    strictly shorter branch replaces the best.  So each call still returns
    what the unpruned search would, a pure function of its mask, and the
    memo and the chosen list are unchanged."""
    cover_of = [[i for i, m in enumerate(masks) if (m >> e) & 1]
                for e in range(full.bit_length())]
    order = sorted(range(len(cover_of)), key=lambda e: (len(cover_of[e]), e))
    cover_of = [cover_of[e] for e in order]
    relabelled = [0] * len(masks)
    start = 0
    for r, e in enumerate(order):
        for ci in cover_of[r]:
            relabelled[ci] |= 1 << r
        if (full >> e) & 1:
            start |= 1 << r
    reach = [reduce(or_, map(relabelled.__getitem__, cover_of[r]), 1 << r)
             for r in range(len(order))]

    @lru_cache(maxsize=None)
    def rec(rem: int) -> tuple | None:
        if rem == 0:
            return ()
        best = None
        for ci in cover_of[(rem & -rem).bit_length() - 1]:
            left = rem & ~relabelled[ci]
            if best is not None and 1 + _packing_bound(left, reach) >= len(best):
                continue
            sub = rec(left)
            if sub is not None and (best is None or len(sub) + 1 < len(best)):
                best = (ci,) + sub
        return best

    result = rec(start)
    rec.cache_clear()
    assert result is not None  # feasibility pre-checked by the caller
    return sorted(result)


def _packing_bound(rem: int, reach: list[int]) -> int:
    """A lower bound on the size of any cover of ``rem``.

    ``reach[e]`` is element e's own bit ORed with every candidate mask that
    holds e.  The bound takes the lowest element of ``rem``, clears its
    reach and counts, until nothing is left: the elements taken pairwise
    share no candidate, so each needs a set of its own."""
    count = 0
    while rem:
        rem &= ~reach[(rem & -rem).bit_length() - 1]
        count += 1
    return count


def _greedy_cover(full: int, masks: list[int]) -> list[int]:
    chosen = []
    rem = full
    while rem:
        best_i, best_gain = -1, 0
        for i, m in enumerate(masks):
            gain = (m & rem).bit_count()
            if gain > best_gain:
                best_i, best_gain = i, gain
        chosen.append(best_i)
        rem &= ~masks[best_i]
    return chosen


@dataclass
class WidthBracket:
    lb: int
    ub: int
    d0: float
    h: float
    separation: SeparationCertificate
    covering: UrysohnCovering
    report: CoveringReport
    ub_method: str

    @property
    def exact(self) -> bool:
        return self.lb == self.ub


def certify(problem: MarginProblem, d0: float, covering: UrysohnCovering,
            method: str) -> WidthBracket:
    """The bracket that ``covering``, found by ``method``, certifies at D0:
    the separation lower bound, and the covering's size as ub with its
    ``verify_covering`` report, which says whether that ub holds."""
    sep = separation_certificate(problem, d0)
    report = verify_covering(problem, covering)
    return WidthBracket(sep.lb, covering.size, d0, covering.h, sep, covering, report, method)


def width_bracket(problem: MarginProblem, d0: float) -> WidthBracket:
    """Certified two-sided width bracket [lb, ub].

    lb comes from the separation certificate; ub from the best verified
    covering among the canonical one and the ball-cover search.  When the
    canonical covering already meets lb the search is skipped: any
    covering is bounded below by lb, so the minimum cannot improve.
    """
    if not math.isfinite(d0):
        raise ValueError(f"D0 must be finite, got d0={d0}")
    report = validate_margin(problem)
    if not report.strict_pass:
        raise ValueError(
            f"margin invalid: min class distance {report.min_pair} "
            f"<= gamma = {problem.gamma}"
        )
    try:
        canon = canonical_covering(problem, d0)
    except ValueError:
        best = None
    else:
        best = certify(problem, d0, canon, "canonical")
        if not best.report.passed:
            best = None
    if best is None or not best.exact:
        cov, info = min_ball_cover(problem, d0)
        found = certify(problem, d0, cov, info.method)
        if not found.report.passed:
            raise AssertionError("searched covering failed verification")
        if best is None or found.ub < best.ub:
            best = found
    return best
