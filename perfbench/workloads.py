"""Seeded operation lists for the four workloads, their execution and checks.

An operation is a kind plus plain parameters (numbers, lists, strings).
``execute`` builds the space and the problem from those parameters on every
call, the same way one CLI invocation does, so nothing built by one
operation is reused by the next.  ``check`` re-derives what the output must
satisfy and returns the list of violations; an empty list means correct.

Each workload is a list of rounds.  A round is a small, fixed mix of
operation kinds, and the cost-driving parameters of each kind are spread
over equal strata of their range (one draw per stratum, shuffled), so every
seed yields the same mix at a similar total cost while the individual
instances differ.  ``run.py`` runs whole rounds.  ``cover_search`` and
``certify`` draw about one run's worth of distinct instances (300 and 200):
with 100, which instances a seed drew decided most of the run-to-run spread
of their median latency.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import urwidth as U
from urwidth import serialize

__all__ = ["Op", "WORKLOADS", "TAIL_PERCENTILE", "make_rounds", "execute", "check"]


@dataclass(frozen=True)
class Op:
    kind: str
    params: dict


# Fixed tail percentile per workload: the highest one that keeps at least
# ten latency samples beyond it at the smallest op count seen in 20 s runs
# on a shared 2-core host (cover_search 340, certify 160, shatter 96,
# stream 150 ops).
TAIL_PERCENTILE = {"cover_search": 97, "certify": 93, "shatter": 89, "stream": 93}


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw inside each of ``count`` equal strata of [lo, hi), shuffled."""
    width = (hi - lo) / count
    vals = [lo + (i + rng.random()) * width for i in range(count)]
    rng.shuffle(vals)
    return vals


def _int_strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """Integers in [lo, hi] spread evenly over ``count`` draws, shuffled."""
    return [min(hi, int(v)) for v in _strata(rng, count, lo, hi + 1)]


def _rounds(rng: random.Random, columns: list[tuple[list[Op], int, object]]) -> list[list[Op]]:
    """Deal per-kind operation lists into rounds of a fixed mix.

    ``columns`` holds (ops, per-round count, cost key).  Each kind's ops are
    sorted by the key and dealt back and forth across the rounds, so every
    round gets one op from each cost band and rounds cost about the same;
    the order within a round is shuffled.
    """
    n_rounds = len(columns[0][0]) // columns[0][1]
    rounds: list[list[Op]] = [[] for _ in range(n_rounds)]
    for ops, _, key in columns:
        for i, op in enumerate(sorted(ops, key=lambda op: key(op.params))):
            band, pos = divmod(i, n_rounds)
            rounds[pos if band % 2 == 0 else n_rounds - 1 - pos].append(op)
    for ops in rounds:
        rng.shuffle(ops)
    return rounds


def _res(L: float, h: float) -> float:
    return L / math.ceil(L / h)


def _bouquet_cover_ops(rng: random.Random, count: int) -> list[Op]:
    ws = _int_strata(rng, count, 1, 8)
    ks = _strata(rng, count, 8.0, 40.0)  # L/h from the coarsest grid to L/40
    ops = []
    for w, k in zip(ws, ks):
        L = rng.uniform(8.0, 16.0)
        h = L / k
        gamma = rng.uniform(0.5, 1.0) * L / 10
        win = U.parameter_window("bouquet", L=L, gamma=gamma)
        # radii are multiples of half a grid step up to d0/2; two steps of
        # headroom above 3*gamma/2 let one ball hold a whole safe set
        d0 = rng.uniform(win.lo + 2 * _res(L, h), win.hi)
        ops.append(Op("cover", {"family": "bouquet", "w": w, "L": L, "gamma": gamma, "h": h, "d0": d0}))
    return ops


def _scaled_params(rng: random.Random, w: int, m: int) -> dict:
    while True:
        L = m * rng.uniform(8.0, 16.0)
        gamma = rng.uniform(0.4, 0.7) * min(L / 10, L / (6 * m))
        h = L / rng.uniform(10.0 * m, 16.0 * m)
        win = U.parameter_window("scaled", L=L, gamma=gamma, m=m)
        lo = win.lo + 2 * _res(L, h)
        if lo < win.hi:
            return {"w": w, "m": m, "L": L, "gamma": gamma, "h": h, "d0": rng.uniform(lo, win.hi)}


def _scaled_ops(rng: random.Random, count: int, kind: str) -> list[Op]:
    ws = _int_strata(rng, count, 1, 4)
    return [
        Op(kind, {"family": "scaled", **_scaled_params(rng, w, 2 + i % 2)})
        for i, w in enumerate(ws)
    ]


def _interval_ops(rng: random.Random, count: int) -> list[Op]:
    ns = _int_strata(rng, count, 31, 81)
    ops = []
    for n in ns:
        r = rng.randint(1, 3)
        slot = 1.0 / r
        ivs = []
        for i in range(r):
            a = i * slot + slot * rng.uniform(0.2, 0.3)
            ivs.append([a, a + slot * rng.uniform(0.15, 0.35)])
        gamma = rng.uniform(0.02, 0.05)
        # D0 = 1 is the smallest scale at which one patch spans [0, 1]
        ops.append(Op("cover", {"family": "interval_union", "intervals": ivs,
                                "gamma": gamma, "n_pts": n, "d0": 1.0}))
    return ops


def _cover_search(seed: int) -> list[list[Op]]:
    rng = random.Random(seed)
    return _rounds(rng, [
        (_bouquet_cover_ops(rng, 180), 6, lambda p: p["w"] * (p["L"] / p["h"]) ** 2),
        (_scaled_ops(rng, 60, "cover"), 2, lambda p: p["w"] * p["m"] * (p["L"] / p["h"]) ** 2),
        (_interval_ops(rng, 60), 2, lambda p: p["n_pts"]),
    ])


def _certify(seed: int) -> list[list[Op]]:
    rng = random.Random(seed)
    bouquets = []
    for w, hi in zip(_int_strata(rng, 60, 2, 16), rng.sample(range(60), 60)):
        win = U.parameter_window("bouquet", L=10.0, gamma=1.0)
        bouquets.append(Op("bracket", {"family": "bouquet", "w": w, "L": 10.0, "gamma": 1.0,
                                       "h": (0.25, 0.1, 0.05)[hi % 3],
                                       "d0": rng.uniform(win.lo, win.hi)}))
    scaled = _scaled_ops(rng, 30, "bracket")
    wedges = []
    for w, n in zip(_int_strata(rng, 50, 2, 4), _int_strata(rng, 50, 64, 300)):
        win = U.parameter_window("wedge", R=2.0, gamma=1.0)
        wedges.append(Op("bracket", {"family": "wedge", "w": w, "k": 2, "R": 2.0, "gamma": 1.0,
                                     "n": n, "seed": rng.randrange(10**6),
                                     "d0": rng.uniform(win.lo, win.hi)}))
    unions = []
    for wl, wr in zip(_int_strata(rng, 30, 1, 6), _int_strata(rng, 30, 1, 6)):
        win = U.parameter_window("bouquet", L=10.0, gamma=1.0)
        d0 = rng.uniform(win.lo, win.hi)
        unions.append(Op("bracket", {"family": "union", "w_left": wl, "w_right": wr, "L": 10.0,
                                     "gamma": 1.0, "h": rng.choice((0.5, 0.25)),
                                     "s": d0 + rng.uniform(1.0, 10.0), "d0": d0}))
    nerves = [
        Op("nerve", {"w": w, "L": 12.0, "h": (0.25, 0.1)[i % 2], "arcs": arcs})
        for i, (w, arcs) in enumerate(zip(_int_strata(rng, 30, 2, 16), _int_strata(rng, 30, 3, 8)))
    ]
    return _rounds(rng, [
        (nerves, 3, lambda p: p["w"] * p["arcs"] / p["h"]),
        (bouquets, 6, lambda p: p["w"] / p["h"] ** 2),
        (scaled, 3, lambda p: p["w"] * p["m"] * (p["L"] / p["h"]) ** 2),
        (wedges, 5, lambda p: p["w"] * p["n"] ** 2),
        (unions, 3, lambda p: (p["w_left"] + p["w_right"]) / p["h"] ** 2),
    ])


def _shatter(seed: int) -> list[list[Op]]:
    rng = random.Random(seed)
    ops = [Op("intervals", {"n": 1, "grid": g}) for g in range(8, 23)]
    ops += [Op("intervals", {"n": 2, "grid": g}) for g in range(12, 23)]
    ops += [Op("intervals", {"n": 3, "grid": 16})]
    ops += [Op("patchwise", {"w": w}) for w in range(2, 7)]
    rng.shuffle(ops)
    return [ops]


def _stream(seed: int) -> list[list[Op]]:
    rng = random.Random(seed)
    evaluate = [
        Op("episode", {"mode": "evaluate", "w": w, "L": 10.0, "gamma": 1.0, "h": 0.25,
                       "d0": 4.0, "r_construct": 2.0, "draws": 2000,
                       "stream_seed": rng.randrange(10**6)})
        for w in _int_strata(rng, 40, 2, 16)
    ]
    construct = [
        Op("episode", {"mode": "construct", "w": w, "L": 10.0, "gamma": 1.0, "h": 0.1,
                       "d0": 4.0, "r_construct": 0.25, "draws": 600,
                       "stream_seed": rng.randrange(10**6)})
        for w in _int_strata(rng, 30, 2, 16)
    ]
    coupons = [
        Op("coupon", {"w": w, "trials": 300, "rng_seed": rng.randrange(10**6)})
        for w in _int_strata(rng, 20, 2, 64)
    ]
    perms = [
        Op("permutation", {"w": w, "ratio": rng.uniform(0.6, 1.6), "trials": 300,
                           "rng_seed": rng.randrange(10**6)})
        for w in _int_strata(rng, 10, 2, 16)
    ]
    return _rounds(rng, [
        (evaluate, 4, lambda p: p["w"]),
        (construct, 3, lambda p: p["w"]),
        (coupons, 2, lambda p: p["w"]),
        (perms, 1, lambda p: p["w"]),
    ])


WORKLOADS = {
    "cover_search": _cover_search,
    "certify": _certify,
    "shatter": _shatter,
    "stream": _stream,
}


def make_rounds(workload: str, seed: int) -> list[list[Op]]:
    return WORKLOADS[workload](seed)


# -- execution ----------------------------------------------------------------


def _problem(p: dict):
    fam = p["family"]
    if fam == "bouquet":
        return U.bouquet_problem(p["w"], p["L"], p["gamma"], p["h"])
    if fam == "scaled":
        return U.scaled_problem(p["w"], p["m"], p["L"], p["gamma"], p["h"])
    if fam == "wedge":
        return U.wedge_problem(p["w"], p["k"], p["R"], p["gamma"], n=p["n"], seed=p["seed"])
    if fam == "interval_union":
        return U.interval_union_problem([tuple(ab) for ab in p["intervals"]], p["gamma"], p["n_pts"])
    if fam == "union":
        left = U.bouquet_problem(p["w_left"], p["L"], p["gamma"], p["h"])
        right = U.bouquet_problem(p["w_right"], p["L"], p["gamma"], p["h"])
        return U.union_problem(left, right, p["s"])
    raise ValueError(f"unknown family {fam!r}")


def _expected_k(p: dict) -> int:
    """Number of classes K, which is also the width, of a generated problem."""
    fam = p["family"]
    if fam == "scaled":
        return p["w"] * p["m"]
    if fam == "union":
        return p["w_left"] + p["w_right"]
    if fam == "interval_union":
        return 2
    return p["w"]


def execute(op: Op, tracer) -> dict:
    """Run one operation from its plain parameters; returns its raw outputs."""
    p = op.params
    if op.kind == "cover":
        prob = _problem(p)
        cov, info = U.min_ball_cover(prob, p["d0"])
        return {"problem": prob, "covering": cov, "info": info}
    if op.kind == "bracket":
        prob = _problem(p)
        br = U.width_bracket(prob, p["d0"])
        text = json.dumps(serialize.bracket_doc(prob, br))
        tracer.count("serialize.cert_bytes", len(text))
        return {"bracket": br, "text": text}
    if op.kind == "nerve":
        space = U.bouquet_space(p["w"], p["L"], p["h"])
        cov = U.cyclic_arc_cover(space, p["arcs"])
        cx = U.nerve(cov)
        beta = U.betti(cx)
        bound = U.betti_bound_check(cov.size, p["w"], U.max_adjacency(cx))
        return {"betti": beta, "bound": bound}
    if op.kind == "intervals":
        return {"vc": U.vc_dimension(U.intervals_class(p["n"], p["grid"]))}
    if op.kind == "patchwise":
        return {"vc": U.vc_dimension(U.patchwise_class(p["w"]).one_vs_rest)}
    if op.kind == "episode":
        prob = U.bouquet_problem(p["w"], p["L"], p["gamma"], p["h"])
        dist = U.sampling_distribution(prob)
        rng = np.random.default_rng(p["stream_seed"])
        stream = [U.sample_safe(dist, rng) for _ in range(p["draws"])]
        args = (prob.space, 0.0, p["d0"], p["r_construct"])
        state = U.machine_new(*args, labels=prob.labels)
        trace = U.run_stream(state, stream)
        replay = U.replay_log(*args, state.log, labels=prob.labels)
        return {"stream": stream, "state": state, "trace": trace, "replay": replay}
    if op.kind == "coupon":
        prob = U.bouquet_problem(p["w"], 10.0, 1.0, 0.5)
        dist = U.sampling_distribution(prob)
        rng = np.random.default_rng(p["rng_seed"])
        return {"times": [U.coupon_time(dist, rng) for _ in range(p["trials"])]}
    if op.kind == "permutation":
        w = p["w"]
        n = max(1, math.ceil(p["ratio"] * w * math.log(w)))
        rng = np.random.default_rng(p["rng_seed"])
        return {"n": n, "result": U.permutation_learner_experiment(w, n, p["trials"], rng)}
    raise ValueError(f"unknown operation kind {op.kind!r}")


# -- output checks ------------------------------------------------------------


def _coupon_moments(w: int) -> tuple[float, float]:
    """Exact mean and variance of the uniform coupon-collector time."""
    mean = var = 0.0
    for i in range(1, w + 1):
        q = (w - i + 1) / w
        mean += 1 / q
        var += (1 - q) / (q * q)
    return mean, var


def _permutation_success(w: int, n: int) -> float:
    """Exact success probability of the permutation learner under uniform draws:
    sum over m missed regions of P(m missed) * (1 if m <= 1 else 1/m!)."""
    total = Fraction(0)
    for m in range(w + 1):
        seen = w - m
        # P(exactly the given ``seen`` regions appear) by inclusion-exclusion
        onto = sum(
            (-1) ** j * math.comb(seen, j) * Fraction(seen - j, w) ** n for j in range(seen + 1)
        )
        p_m = math.comb(w, m) * onto
        total += p_m * (1 if m <= 1 else Fraction(1, math.factorial(m)))
    return float(total)


def check(op: Op, out: dict) -> list[str]:
    """Violations of the operation's output contract; empty when correct."""
    p = op.params
    bad = []
    if op.kind == "cover":
        prob, cov, info = out["problem"], out["covering"], out["info"]
        if not U.verify_covering(prob, cov).passed:
            bad.append("covering fails verify_covering")
        lb = U.separation_certificate(prob, p["d0"]).lb
        if not lb <= cov.size <= prob.k:
            bad.append(f"size {cov.size} outside [lb={lb}, K={prob.k}]")
        if cov.size != info.size:
            bad.append(f"covering size {cov.size} != search size {info.size}")
        if p["family"] in ("bouquet", "scaled") and info.method == "exact-dp":
            if cov.size != _expected_k(p):
                bad.append(f"exact-dp size {cov.size} != {_expected_k(p)}")
        if p["family"] == "interval_union" and p["n_pts"] % 2 == 1 and cov.size != 1:
            # odd grids hold the centre 0.5, whose radius-1/2 ball covers [0, 1]
            bad.append(f"odd-grid interval union needs 1 patch, got {cov.size}")
    elif op.kind == "bracket":
        br = out["bracket"]
        ok, msgs = serialize.verify_bracket(json.loads(out["text"]))
        if not ok:
            bad.append("verify_bracket: " + "; ".join(msgs))
        if not br.exact:
            bad.append(f"bracket not exact: [{br.lb}, {br.ub}]")
        if br.ub_method != "canonical":
            bad.append(f"ub method {br.ub_method!r}, expected canonical")
        if br.ub != _expected_k(p):
            bad.append(f"ub {br.ub} != {_expected_k(p)}")
    elif op.kind == "nerve":
        if out["betti"][1] != p["w"]:
            bad.append(f"beta1 {out['betti'][1]} != w = {p['w']}")
        if not out["bound"].passed:
            bad.append("betti bound check failed")
    elif op.kind in ("intervals", "patchwise"):
        want = 2 * p["n"] if op.kind == "intervals" else p["w"]
        if out["vc"] != want:
            bad.append(f"VC {out['vc']} != {want}")
    elif op.kind == "episode":
        state, trace, replay = out["state"], out["trace"], out["replay"]
        if trace.errors:
            bad.append(f"{trace.errors} evaluate errors")
        if replay.entries != state.entries or replay.log != state.log:
            bad.append("replay is not bit-exact")
        if p["mode"] == "evaluate":
            seen = len({y for _, y in out["stream"]})
            if state.library_size != seen:
                bad.append(f"library {state.library_size} != {seen} labels seen")
    elif op.kind == "coupon":
        times = out["times"]
        if min(times) < p["w"]:
            bad.append(f"coverage time {min(times)} below w = {p['w']}")
        mean, var = _coupon_moments(p["w"])
        if abs(sum(times) / len(times) - mean) > 5 * math.sqrt(var / len(times)):
            bad.append("mean coverage time more than 5 standard errors from w*H_w")
    elif op.kind == "permutation":
        r = out["result"]
        if r.n_all_seen + r.n_one_missed + r.n_multi_missed != r.trials:
            bad.append("missed-count classes do not add up to the trials")
        if r.successes != r.n_all_seen + r.n_one_missed + r.successes_multi:
            bad.append("successes do not decompose by missed count")
        if not r.wilson_lo - 1e-12 <= r.rate <= r.wilson_hi + 1e-12:
            bad.append("rate outside its Wilson interval")
        want = _permutation_success(p["w"], out["n"])
        if abs(r.rate - want) > 5 * math.sqrt(want * (1 - want) / r.trials) + 1e-9:
            bad.append(f"rate {r.rate} more than 5 standard errors from {want:.4f}")
    else:
        bad.append(f"no check for kind {op.kind!r}")
    return bad
