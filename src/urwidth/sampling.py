"""Coverage-time and label-permutation sampling experiments.

The sampling model draws a safe region by per-region weights and a point
uniformly from that region's sampled safe set; ``sample_safe`` reads the
bits of ``rng.random()`` and ``rng.integers`` from the bit generator
itself.  Weights must stay within
the two-sided band [1/(c1*K), c2/K], so every region keeps mass of order
1/K and coverage of all K regions is a coupon-collector event with
expectation K*H_K under uniform weights.

The permutation-learner protocol measures how much of a uniformly random
labelling the learner can pin down from n draws: observed regions reveal
their labels, and the learner fills the missed regions with a uniformly
random bijection onto the unused labels.  A single missed region is
forced (one unused label), so conditional success given m missed regions
is exactly 1/m!; the decomposition checks below track the m = 0, m = 1
and m >= 2 components separately.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .problems import MarginProblem

__all__ = [
    "SamplingDistribution",
    "sampling_distribution",
    "sample_safe",
    "coupon_time",
    "CouponRow",
    "coupon_stats",
    "harmonic",
    "regress",
    "PermutationResult",
    "permutation_learner_experiment",
    "SweepRow",
    "TrialStats",
    "threshold_sweep",
    "wilson_interval",
]


@dataclass
class SamplingDistribution:
    problem: MarginProblem
    weights: tuple
    c1: float
    c2: float
    # cumsum of ``weights`` over its last entry: the CDF ``Generator.choice``
    # searches, as a list for ``bisect`` and as an array for ``searchsorted``
    cdf: list[float] = field(init=False, compare=False, repr=False)
    cdf_array: np.ndarray = field(init=False, compare=False, repr=False)
    # each region's label, and its safe list once a draw has needed it (else None)
    labels: list[int] = field(init=False, compare=False, repr=False)
    safe: list = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        k = self.problem.k
        w = np.asarray(self.weights, dtype=float)
        if len(w) != k:
            raise ValueError(f"need {k} weights, got {len(w)}")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        lo, hi = 1.0 / (self.c1 * k), self.c2 / k
        for j, q in enumerate(w):
            if not lo - 1e-12 <= q <= hi + 1e-12:
                raise ValueError(
                    f"weight q_{j} = {q} outside the band [1/(c1 K), c2/K] = "
                    f"[{lo}, {hi}]"
                )
        self.weights = tuple(float(q) for q in w)
        cdf = w.cumsum()
        cdf /= cdf[-1]
        self.cdf = cdf.tolist()
        self.cdf_array = cdf
        self.labels = self.problem.labels
        self.safe = [None] * k

    @property
    def k(self) -> int:
        return self.problem.k


def sampling_distribution(
    problem: MarginProblem, weights=None, c1: float = 1.0, c2: float = 1.0
) -> SamplingDistribution:
    """Per-region sampling weights; uniform by default."""
    if weights is None:
        weights = [1.0 / problem.k] * problem.k
    return SamplingDistribution(problem, tuple(weights), c1, c2)


def sample_safe(dist: SamplingDistribution, rng: np.random.Generator):
    """One labelled draw: region by weight, point uniform in its safe set.

    The region is the first whose CDF entry exceeds one uniform double:
    ``rng.choice(dist.k, p=dist.weights)``'s index from the same bits.  The
    point is ``pts[rng.integers(len(pts))]``: the double and the index come
    from the bit generator's ``next_double`` and ``next_uint32``, which
    those two numpy calls read, with numpy's Lemire rejection step (D.
    Lemire, ACM TOMACS 29(1), 2019) for the index, so the draw and the
    state it leaves are theirs bit for bit.  Both native calls run under
    the bit generator's lock, as numpy's own calls do, because they
    release the GIL; the lock is taken with acquire and released in a
    ``finally``, which costs less than a ``with`` block.  A safe set of one
    point consumes no word; an empty one, or one above 2**32 points, takes
    ``rng.integers`` itself.
    """
    bitgen = rng.bit_generator
    c = bitgen.ctypes
    lock = bitgen.lock
    lock.acquire()
    try:
        j = bisect_right(dist.cdf, c.next_double(c.state))
        pts = dist.safe[j]
        if pts is None:
            pts = dist.safe[j] = dist.problem.safe_points(j)
        k = len(pts)
        i = 0
        if 1 < k <= 0x100000000:
            m = c.next_uint32(c.state) * k
            if m & 0xFFFFFFFF < k:
                low = (0x100000000 - k) % k
                while m & 0xFFFFFFFF < low:
                    m = c.next_uint32(c.state) * k
            i = m >> 32
    finally:
        lock.release()
    if not 0 < k <= 0x100000000:  # numpy raises on 0 and takes 64-bit words above 2**32
        i = int(rng.integers(k))  # outside the lock, which it takes itself
    return pts[i], dist.labels[j]


def coupon_time(dist: SamplingDistribution, rng: np.random.Generator) -> int:
    """Number of draws until every region has been seen at least once; regions
    are drawn a chunk at a time as in ``sample_safe`` (``rng.choice``'s stream)."""
    k = dist.k
    if k == 1:
        return 1
    cdf = dist.cdf_array
    seen = set()
    t = 0
    chunk = max(32, 2 * k)
    while True:
        for i, j in enumerate(cdf.searchsorted(rng.random(chunk), side="right").tolist(), t + 1):
            if j not in seen:
                seen.add(j)
                if len(seen) == k:  # the last new region's first draw ends the wait
                    return i
        t += chunk


def harmonic(n: int) -> float:
    return sum(1.0 / i for i in range(1, n + 1))


@dataclass
class CouponRow:
    w: int
    trials: int
    mean: float
    median: float
    analytic_mean: float
    seed: int


def coupon_stats(
    problems: dict[int, MarginProblem], trials: int, seed: int
) -> list[CouponRow]:
    """Monte-Carlo coverage times for each problem, uniform weights.

    The analytic column is the exact uniform coupon-collector mean w*H_w,
    the reference for the slope-1 regression.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got trials={trials}")
    rows = []
    for w in sorted(problems):
        dist = sampling_distribution(problems[w])
        rng = np.random.default_rng(seed + w)
        times = np.array([coupon_time(dist, rng) for _ in range(trials)], dtype=float)
        rows.append(
            CouponRow(
                w,
                trials,
                float(times.mean()),
                float(np.median(times)),
                w * harmonic(w),
                seed,
            )
        )
    return rows


def regress(xs, ys) -> tuple[float, float, float]:
    """Least-squares fit y = a + b x; returns (slope, intercept, r2).  A line
    needs at least two distinct x values."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(np.unique(x)) < 2:
        raise ValueError(f"a regression needs at least two distinct x values, got {x.tolist()}")
    b, a = np.polyfit(x, y, 1)
    pred = a + b * x
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(b), float(a), r2


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    z = 1.96  # the two-sided 95% normal quantile
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class PermutationResult:
    w: int
    n: int
    trials: int
    successes: int
    rate: float
    wilson_lo: float
    wilson_hi: float
    n_all_seen: int
    n_one_missed: int
    n_multi_missed: int
    successes_multi: int


def permutation_learner_experiment(
    w: int,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> PermutationResult:
    """Success rate of the label-assignment learner at sample budget n.

    Per trial: a uniform permutation labels the w regions; the learner
    sees n uniform draws, assigns observed labels to observed regions,
    and fills the missed regions with a uniformly random bijection onto
    the unused labels.  Success means the full labelling is recovered.
    """
    if w < 1:
        raise ValueError("need at least one region")
    if trials < 1:
        raise ValueError(f"need at least one trial, got trials={trials}")
    if n < 0:
        raise ValueError(f"need a nonnegative sample budget, got n={n}")
    # rng.choice(w, p=uniform)'s draws from its CDF (choice without p draws integers)
    cdf = np.full(w, 1.0 / w).cumsum()
    cdf /= cdf[-1]
    successes = 0
    n_all = n_one = n_multi = succ_multi = 0
    for _ in range(trials):
        sigma = rng.permutation(w)
        draws = cdf.searchsorted(rng.random(n), side="right")
        seen = np.zeros(w, dtype=bool)
        seen[draws] = True
        missed = np.flatnonzero(~seen)
        m = missed.size
        if m == 0:
            n_all += 1
            ok = True
        elif m == 1:
            n_one += 1
            ok = True  # a single unused label is forced
        else:
            n_multi += 1
            guess = rng.permutation(sigma[missed])
            ok = bool(np.array_equal(guess, sigma[missed]))
            succ_multi += ok
        successes += ok
    lo, hi = wilson_interval(successes, trials)
    return PermutationResult(w, n, trials, successes, successes / trials, lo, hi,
                             n_all, n_one, n_multi, succ_multi)


@dataclass
class SweepRow:
    w: int
    n: int
    ratio: float
    trials: int
    successes: int
    rate: float
    wilson_lo: float
    wilson_hi: float
    p_all_seen: float
    p_one_missed: float
    p_multi_missed: float
    seed: int


@dataclass
class TrialStats:
    rows: list[SweepRow]
    crossings: dict[int, float]  # w -> interpolated 2/3-success ratio


def threshold_sweep(
    w_list, ratios, trials: int, seed: int
) -> TrialStats:
    """Success rate versus n/(w ln w) on a ratio grid; locates the
    2/3-success crossing per w by linear interpolation."""
    for w in w_list:
        if w < 2:  # w ln w vanishes at w = 1
            raise ValueError(f"sweep needs w >= 2 for the ratio n/(w ln w), got w={w}")
    for ratio in ratios:
        if not math.isfinite(ratio):
            raise ValueError(f"sweep needs finite ratios n/(w ln w), got ratio={ratio}")
    rows = []
    crossings: dict[int, float] = {}
    for w in w_list:
        rng = np.random.default_rng(seed + 1000 * w)
        per_w = []
        for ratio in ratios:
            n = max(1, math.ceil(ratio * w * math.log(w)))
            res = permutation_learner_experiment(w, n, trials, rng)
            per_w.append(
                SweepRow(
                    w,
                    n,
                    ratio,
                    trials,
                    res.successes,
                    res.rate,
                    res.wilson_lo,
                    res.wilson_hi,
                    res.n_all_seen / trials,
                    res.n_one_missed / trials,
                    res.n_multi_missed / trials,
                    seed,
                )
            )
        rows.extend(per_w)
        target = 2.0 / 3.0
        for prev, cur in zip(per_w, per_w[1:]):
            if prev.rate < target <= cur.rate:
                span = cur.rate - prev.rate
                frac = (target - prev.rate) / span if span > 0 else 0.0
                crossings[w] = prev.ratio + frac * (cur.ratio - prev.ratio)
                break
        else:
            if per_w and per_w[0].rate >= target:
                crossings[w] = per_w[0].ratio
    return TrialStats(rows, crossings)

