"""Coverage-time statistics and the permutation-learner protocol."""

import math
import threading
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urwidth.problems import TOL, bouquet_problem
from urwidth.sampling import (
    coupon_stats,
    coupon_time,
    harmonic,
    permutation_learner_experiment,
    regress,
    sample_safe,
    sampling_distribution,
    threshold_sweep,
    wilson_interval,
)


def test_weight_band_enforced():
    p = bouquet_problem(4, 10.0, 1.0, 0.5)
    sampling_distribution(p)  # uniform always fine
    with pytest.raises(ValueError):
        sampling_distribution(p, weights=[0.4, 0.2, 0.2, 0.2])  # c1=c2=1 band
    sampling_distribution(p, weights=[0.4, 0.2, 0.2, 0.2], c1=2.0, c2=2.0)
    with pytest.raises(ValueError):
        sampling_distribution(p, weights=[0.3, 0.3, 0.3, 0.3])  # sum != 1


def test_sample_safe_single_region():
    p = bouquet_problem(1, 10.0, 1.0, 0.5)
    (ball,) = p.regions[0].pieces
    dist = sampling_distribution(p)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, lab = sample_safe(dist, rng)
        assert lab == 1
        assert max(0.0, p.space.dist(ball.center, x) - ball.radius) <= p.gamma / 2 + TOL


def test_sample_safe_frequencies_within_three_sigma():
    p = bouquet_problem(4, 10.0, 1.0, 0.5)
    dist = sampling_distribution(p)
    rng = np.random.default_rng(1)
    n = 100_000
    counts = {1: 0, 2: 0, 3: 0, 4: 0}
    for _ in range(n):
        _, lab = sample_safe(dist, rng)
        counts[lab] += 1
    sigma = math.sqrt(0.25 * 0.75 / n)
    for lab in counts:
        assert abs(counts[lab] / n - 0.25) <= 3 * sigma


def test_coupon_time_degenerate():
    p = bouquet_problem(1, 10.0, 1.0, 0.5)
    dist = sampling_distribution(p)
    rng = np.random.default_rng(2)
    assert all(coupon_time(dist, rng) == 1 for _ in range(20))


def test_coupon_time_mean_matches_harmonic_law():
    p = bouquet_problem(4, 10.0, 1.0, 0.5)
    dist = sampling_distribution(p)
    rng = np.random.default_rng(3)
    times = [coupon_time(dist, rng) for _ in range(100_000)]
    assert np.mean(times) == pytest.approx(4 * harmonic(4), abs=0.1)  # 25/3


def test_coupon_regression_slope_against_analytic_law():
    problems = {w: bouquet_problem(w, 10.0, 1.0, 0.5) for w in (4, 8, 16, 32)}
    rows = coupon_stats(problems, trials=2000, seed=11)
    slope, _, r2 = regress([r.analytic_mean for r in rows], [r.mean for r in rows])
    assert 0.95 <= slope <= 1.05
    assert r2 >= 0.99


@pytest.mark.parametrize("xs", [[], [3.0], [3.0, 3.0, 3.0]])
def test_regression_needs_two_distinct_x(xs):
    with pytest.raises(ValueError, match="at least two distinct x values"):
        regress(xs, [1.0] * len(xs))


def test_wilson_interval_sane():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == pytest.approx(1.0)


def test_single_missed_region_always_succeeds():
    # w=2, n=1: exactly one region is always missed, its label is forced
    rng = np.random.default_rng(5)
    res = permutation_learner_experiment(2, 1, 500, rng)
    assert res.rate == 1.0
    assert res.n_one_missed == 500


def test_learner_refuses_a_negative_budget_before_it_draws():
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="nonnegative sample budget, got n=-3"):
        permutation_learner_experiment(4, -3, 10, rng)
    assert rng.bit_generator.state == state
    assert permutation_learner_experiment(4, 0, 10, rng).n_all_seen == 0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_sweep_refuses_a_non_finite_ratio(bad):
    with pytest.raises(ValueError, match=f"got ratio={bad}"):
        threshold_sweep([4], [1.0, bad], 5, 1)


def test_learner_succeeds_with_generous_budget():
    w = 16
    n = math.ceil(10 * w * math.log(w))
    rng = np.random.default_rng(6)
    res = permutation_learner_experiment(w, n, 500, rng)
    assert res.rate >= 0.99


def test_learner_fails_at_half_coupon_budget():
    w = 32
    n = math.ceil(0.5 * w * math.log(w))
    assert n == 56
    rng = np.random.default_rng(7)
    res = permutation_learner_experiment(w, n, 2000, rng)
    assert res.rate <= 0.40
    assert res.wilson_hi < 2.0 / 3.0


def test_success_decomposition_identity_and_bound():
    # success = P(0 missed) + P(1 missed) + (multi-missed successes), and the
    # multi-missed part can win at most half its trials up to binomial noise
    rng = np.random.default_rng(8)
    for n in (40, 80, 111, 140):
        res = permutation_learner_experiment(32, n, 2000, rng)
        assert res.successes == res.n_all_seen + res.n_one_missed + res.successes_multi
        slack = 3 * math.sqrt(max(res.n_multi_missed, 1) * 0.25) / res.trials
        bound = (res.n_all_seen + res.n_one_missed + 0.5 * res.n_multi_missed) / res.trials
        assert res.rate <= bound + slack


def test_threshold_sweep_crossing_for_w32():
    ratios = [0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8]
    stats = threshold_sweep([32], ratios, trials=500, seed=13)
    assert 0.8 <= stats.crossings[32] <= 1.6


def test_threshold_sweep_small_w_crosses_early():
    ratios = [r / 10 for r in range(2, 30, 4)]
    stats = threshold_sweep([2], ratios, 400, seed=17)
    # n = 10 corresponds to ratio 10/(2 ln 2) ~ 7.2: crossed well before that
    assert stats.crossings[2] <= 10 / (2 * math.log(2))


def test_threshold_sweep_rejects_w_below_two():
    # n/(w ln w) divides by zero at w = 1
    with pytest.raises(ValueError, match="w=1"):
        threshold_sweep([4, 1], [0.5, 1.0], 10, seed=0)


def test_mean_coverage_time_dominates_under_mass_reduction():
    p = bouquet_problem(4, 10.0, 1.0, 0.5)
    uniform = sampling_distribution(p)
    halved = sampling_distribution(
        p, weights=[0.125] + [0.875 / 3] * 3, c1=2.0, c2=2.0
    )
    means = {}
    for name, dist in (("uniform", uniform), ("halved", halved)):
        acc = 0
        for seed in range(4000):
            rng = np.random.default_rng(1000 + seed)  # paired seeds
            acc += coupon_time(dist, rng)
        means[name] = acc / 4000
    assert means["halved"] >= means["uniform"]


def test_seeded_determinism():
    a = threshold_sweep([8], [0.5, 1.0], 200, seed=23)
    b = threshold_sweep([8], [0.5, 1.0], 200, seed=23)
    assert a.rows == b.rows
    assert a.crossings == b.crossings


# -- the fast draws against the numpy calls they replaced ---------------------


@lru_cache(maxsize=None)
def _bouquet(k):
    return bouquet_problem(k, 10.0, 1.0, 0.5)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    raw=st.lists(st.floats(1.0, 2.0), min_size=1, max_size=8),
)
def test_sample_safe_matches_generator_choice(seed, raw):
    # raw weights in [1, 2], normalised: every q_j lies in [1/(2K), 2/K]
    k = len(raw)
    total = math.fsum(raw)
    weights = [r / total for r in raw]
    try:
        dist = sampling_distribution(_bouquet(k), weights, c1=2.0, c2=2.0)
    except ValueError:  # the normalised sum missed 1 by more than 1e-12
        return
    got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        j = int(ref_rng.choice(k, p=dist.weights))  # the oracle draw
        pts = dist.problem.safe_points(j)
        want = (pts[int(ref_rng.integers(len(pts)))], dist.problem.regions[j].label)
        assert sample_safe(dist, got_rng) == want
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


# -- the native draws against the numpy pair they stand for ---------------------


def _numpy_pair(dist, rng):
    """The oracle draw: ``rng.random()`` through ``Generator.choice``'s CDF
    search, then ``rng.integers(len(pts))``."""
    j = int(rng.choice(dist.k, p=dist.weights))
    pts = dist.problem.safe_points(j)
    return pts[int(rng.integers(len(pts)))], dist.problem.regions[j].label


def _plain(state):
    """A bit generator state as comparable data (MT19937 and Philox hold arrays)."""
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


class _Ranges:
    """A stand-in problem whose class j has the safe set ``range(sizes[j])``,
    so a safe set of any size costs no memory."""

    def __init__(self, sizes):
        self.sizes = sizes
        self.regions = [SimpleNamespace(label=j + 1) for j in range(len(sizes))]
        self.k = len(sizes)
        self.labels = [r.label for r in self.regions]

    def safe_points(self, j):
        return range(self.sizes[j])


def _within(seconds, fn):
    """``fn()`` from a daemon thread, failing unless it returns in time: a
    draw that rejects every word would otherwise hang the suite."""
    box = []
    worker = threading.Thread(target=lambda: box.append(fn()), daemon=True)
    worker.start()
    worker.join(seconds)
    assert box, f"no result within {seconds} s"
    return box[0]


_BIT_GENERATORS = ["PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"]


@pytest.mark.parametrize("name", _BIT_GENERATORS)
def test_sample_safe_matches_the_numpy_pair_on_every_bit_generator(name):
    weights = [0.3, 0.1, 0.2, 0.15, 0.25]
    dists = [sampling_distribution(_bouquet(3)),
             sampling_distribution(_bouquet(5), weights, c1=2.0, c2=2.0),
             sampling_distribution(_Ranges([1, 7, 1, 2]))]  # size-1 sets draw no word
    for seed in range(20):
        got, ref = (np.random.Generator(getattr(np.random, name)(seed)) for _ in "ab")
        assert got.integers(7) == ref.integers(7)
        # a generator that buffers 32-bit halves now holds one on entry
        assert got.bit_generator.state.get("has_uint32", 1) == 1
        for t in range(60):
            dist = dists[t % 3]
            assert sample_safe(dist, got) == _numpy_pair(dist, ref)
            if t % 7 == 0:
                assert got.integers(7) == ref.integers(7)
                assert got.random(3).tolist() == ref.random(3).tolist()
        assert _plain(got.bit_generator.state) == _plain(ref.bit_generator.state)
    # the kept safe lists are left out of equality and repr
    assert dists[2] == sampling_distribution(dists[2].problem)
    assert repr(dists[2]) == repr(sampling_distribution(dists[2].problem))


# 3 * 2**30 rejects a quarter of its words; 2**32 takes a whole word;
# 2**32 + 1 is beyond 32-bit words, where numpy draws 64-bit ones
@pytest.mark.parametrize("n", [3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1])
def test_sample_safe_matches_the_numpy_pair_on_huge_safe_sets(n):
    dist = sampling_distribution(_Ranges([n]))
    for seed in range(5):
        got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got.integers(7), ref.integers(7)
        draws = _within(10, lambda: [sample_safe(dist, got) for _ in range(50)])
        assert draws == [_numpy_pair(dist, ref) for _ in range(50)]
        assert got.bit_generator.state == ref.bit_generator.state


def test_sample_safe_on_an_empty_safe_set_raises_as_integers_does():
    dist = sampling_distribution(_Ranges([0]))
    got, ref = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(ValueError) as want:
        _numpy_pair(dist, ref)
    with pytest.raises(ValueError) as err:
        sample_safe(dist, got)
    assert str(err.value) == str(want.value)
    assert got.bit_generator.state == ref.bit_generator.state


def test_sample_safe_waits_for_the_bit_generator_lock():
    dist = sampling_distribution(_bouquet(3))
    got, ref = np.random.default_rng(8), np.random.default_rng(8)
    out = []
    worker = threading.Thread(target=lambda: out.append(sample_safe(dist, got)), daemon=True)
    with got.bit_generator.lock:
        worker.start()
        worker.join(0.2)
        assert worker.is_alive() and not out
    worker.join(10)
    assert out == [_numpy_pair(dist, ref)]
    assert got.bit_generator.state == ref.bit_generator.state


class _Refusing(_Ranges):
    def safe_points(self, j):
        raise RuntimeError(f"no safe set for class {j}")


def _free_from_another_thread(lock):
    """Whether a second thread can take ``lock`` at once: its owner could
    re-enter an ``RLock`` it failed to release."""
    box = []

    def probe():
        if lock.acquire(blocking=False):
            lock.release()
            box.append(True)
        else:
            box.append(False)

    worker = threading.Thread(target=probe, daemon=True)
    worker.start()
    worker.join(10)
    assert not worker.is_alive()
    return box == [True]


def test_sample_safe_releases_the_bit_generator_lock():
    rng = np.random.default_rng(4)
    lock = rng.bit_generator.lock
    sample_safe(sampling_distribution(_bouquet(3)), rng)
    assert _free_from_another_thread(lock)
    # the region's first safe_points call raises inside the locked block
    with pytest.raises(RuntimeError, match="no safe set"):
        sample_safe(sampling_distribution(_Refusing([3, 4])), rng)
    assert _free_from_another_thread(lock)


def _coupon_time_oracle(dist, rng):
    """The per-draw loop: count draws until every region has been seen."""
    k = dist.k
    if k == 1:
        return 1
    seen, remaining, t = np.zeros(k, dtype=bool), k, 0
    while True:
        for r in rng.choice(k, size=max(32, 2 * k), p=np.asarray(dist.weights)):
            t += 1
            if not seen[r]:
                seen[r] = True
                remaining -= 1
                if remaining == 0:
                    return t


@pytest.mark.parametrize("k", [1, 2, 5, 16, 64])
def test_coupon_time_matches_per_draw_loop(k):
    dist = sampling_distribution(_bouquet(k))
    got_rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
    for _ in range(30):  # one shared rng: the state after each call must match too
        assert coupon_time(dist, got_rng) == _coupon_time_oracle(dist, ref_rng)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


# -- the CDF-search draws against the Generator.choice code they replaced -----


def _coupon_time_choice_oracle(dist, rng):
    """coupon_time as it was: choice draws per chunk, np.unique for first sightings."""
    k = dist.k
    if k == 1:
        return 1
    weights = np.asarray(dist.weights)
    seen = np.zeros(k, dtype=bool)
    remaining = k
    t = 0
    chunk = max(32, 2 * k)
    while True:
        draws = rng.choice(k, size=chunk, p=weights)
        regions, first = np.unique(draws, return_index=True)
        fresh = ~seen[regions]
        remaining -= int(fresh.sum())
        if remaining == 0:
            return t + int(first[fresh].max()) + 1
        seen[regions] = True
        t += chunk


def _permutation_choice_oracle(w, n, trials, rng):
    """The permutation learner's trial loop as it was, drawing with choice."""
    q = np.full(w, 1.0 / w)
    successes = n_all = n_one = n_multi = succ_multi = 0
    for _ in range(trials):
        sigma = rng.permutation(w)
        draws = rng.choice(w, size=n, p=q)
        seen = np.zeros(w, dtype=bool)
        seen[draws] = True
        missed = np.flatnonzero(~seen)
        m = missed.size
        if m == 0:
            n_all += 1
            ok = True
        elif m == 1:
            n_one += 1
            ok = True
        else:
            n_multi += 1
            guess = rng.permutation(sigma[missed])
            ok = bool(np.array_equal(guess, sigma[missed]))
            succ_multi += ok
        successes += ok
    return successes, n_all, n_one, n_multi, succ_multi


@st.composite
def _banded_distributions(draw):
    """Uniform weights, or raw weights in [1, c] normalised: every q_j lies
    in the band [1/(cK), c/K], so c1 = c2 = c > 1 admits them."""
    k = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return sampling_distribution(_bouquet(k))
    c = draw(st.sampled_from([1.25, 2.0, 4.0]))
    raw = draw(st.lists(st.floats(1.0, c), min_size=k, max_size=k))
    total = math.fsum(raw)
    try:
        return sampling_distribution(_bouquet(k), [r / total for r in raw], c1=c, c2=c)
    except ValueError:  # the normalised sum missed 1 by more than 1e-12
        return sampling_distribution(_bouquet(k))


@settings(max_examples=80, deadline=None)
@given(dist=_banded_distributions(), seed=st.integers(0, 2**32 - 1))
@example(dist=sampling_distribution(_bouquet(1)), seed=4)  # returns without drawing
def test_coupon_time_matches_choice_oracle(dist, seed):
    got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        assert coupon_time(dist, got_rng) == _coupon_time_choice_oracle(dist, ref_rng)
    # later draws (the next trial, coupon_stats' next call) see the same stream
    assert got_rng.random() == ref_rng.random()


@settings(max_examples=80, deadline=None)
@given(w=st.integers(1, 19), n=st.integers(0, 80), trials=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
@example(w=1, n=5, trials=3, seed=4)
@example(w=19, n=0, trials=3, seed=4)
def test_permutation_learner_matches_choice_oracle(w, n, trials, seed):
    got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    res = permutation_learner_experiment(w, n, trials, got_rng)
    successes, n_all, n_one, n_multi, succ_multi = _permutation_choice_oracle(
        w, n, trials, ref_rng)
    assert (res.w, res.n, res.trials) == (w, n, trials)
    assert (res.successes, res.n_all_seen, res.n_one_missed, res.n_multi_missed,
            res.successes_multi) == (successes, n_all, n_one, n_multi, succ_multi)
    assert res.rate == successes / trials
    # threshold_sweep runs every ratio of one w on the same rng
    assert got_rng.random() == ref_rng.random()

