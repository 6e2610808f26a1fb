"""Brute-force VC dimension and the separation report."""

import gc
import hashlib
import math
import random
import time
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urwidth import vc as vc_module
from urwidth.vc import (
    GROUND_CAP,
    HypothesisTable,
    _columns,
    _is_binary,
    intervals_class,
    patchwise_class,
    separation_report,
    vc_dimension,
)


def test_single_constant_hypothesis_has_vc_zero():
    t = HypothesisTable([0, 1, 2], [(1, 1, 1)])
    assert vc_dimension(t) == 0


def test_thresholds_on_a_line_have_vc_one():
    ground = list(range(10))
    hyps = [tuple(1 if i >= k else 0 for i in ground) for k in range(11)]
    assert vc_dimension(HypothesisTable(ground, hyps)) == 1


def test_full_shatter_of_four_points():
    ground = list(range(4))
    hyps = [tuple((m >> i) & 1 for i in ground) for m in range(16)]
    assert vc_dimension(HypothesisTable(ground, hyps)) == 4


def test_table_validation():
    with pytest.raises(ValueError):
        HypothesisTable(list(range(23)), [tuple([0] * 23)])
    with pytest.raises(ValueError, match="hypothesis length does not match the ground set"):
        HypothesisTable([0, 1], [(0, 1), (0, 1, 0), (1, 0)])
    t = HypothesisTable([0, 1], [(0, 1), (0, 1), (1, 1)])
    assert len(t.hypotheses) == 2  # deduplicated
    t = HypothesisTable([0, 1], [(None, 1), (None, 1)])  # any hashable label
    assert t.hypotheses == [(None, 1)] and not t.binary


def test_tables_compare_by_ground_and_hypotheses():
    t = HypothesisTable([0, 1], np.array([[0, 1], [0, 1], [1, 1]], dtype=np.uint8))
    assert t == HypothesisTable([0, 1], [(0, 1), (1, 1)])
    assert t != HypothesisTable([0, 1], [(1, 1), (0, 1)])  # order counts
    assert t != HypothesisTable(["a", "b"], [(0, 1), (1, 1)])
    assert t != t.hypotheses
    assert repr(t) == "HypothesisTable(ground=[0, 1], hypotheses=[(0, 1), (1, 1)])"
    assert patchwise_class(2) == patchwise_class(2)
    with pytest.raises(TypeError):
        hash(t)


def test_multiclass_table_directed_to_bound_path():
    t = HypothesisTable([0, 1], [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match="bound"):
        vc_dimension(t)


def _shattered_oracle(table, subset):
    """Direct pattern-set oracle, no bitmask machinery."""
    pats = {tuple(h[i] for i in subset) for h in table.hypotheses}
    return len(pats) == 2 ** len(subset)


def _vc_exhaustive_oracle(table):
    n = len(table.ground)
    best = 0
    for m in range(1, n + 1):
        if any(_shattered_oracle(table, s) for s in combinations(range(n), m)):
            best = m
    return best


def _vc_restart_oracle(table, rnd, restarts=200):
    """Randomized greedy restarts: grow a shattered set in random order."""
    n = len(table.ground)
    best = 0
    for _ in range(restarts):
        order = rnd.sample(range(n), n)
        cur: list[int] = []
        for j in order:
            if _shattered_oracle(table, tuple(sorted(cur + [j]))):
                cur.append(j)
        best = max(best, len(cur))
    return best


def test_vc_agrees_with_oracles_on_random_tables():
    rnd = random.Random(41)
    for _ in range(50):
        n = rnd.randint(2, 8)
        m = rnd.randint(1, 64)
        hyps = [tuple(rnd.randint(0, 1) for _ in range(n)) for _ in range(m)]
        t = HypothesisTable(list(range(n)), hyps)
        exact = vc_dimension(t)
        assert exact == _vc_exhaustive_oracle(t)
        assert exact == _vc_restart_oracle(t, rnd)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_vc_matches_exhaustive_oracle(data):
    n = data.draw(st.integers(1, 10))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    hyps = data.draw(st.lists(row, min_size=1, max_size=200))
    t = HypothesisTable(list(range(n)), hyps)
    assert vc_dimension(t) == _vc_exhaustive_oracle(t)


def test_vc_monotone_under_hypothesis_inclusion():
    rnd = random.Random(43)
    for _ in range(20):
        n = rnd.randint(2, 7)
        m = rnd.randint(4, 40)
        hyps = [tuple(rnd.randint(0, 1) for _ in range(n)) for _ in range(m)]
        sub = rnd.sample(hyps, rnd.randint(1, len(hyps)))
        big = HypothesisTable(list(range(n)), hyps)
        small = HypothesisTable(list(range(n)), sub)
        assert vc_dimension(small) <= vc_dimension(big)


@pytest.mark.parametrize("n,grid,expect", [(1, 12, 2), (2, 16, 4), (3, 16, 6), (2, 22, 4)])
def test_intervals_class_vc(n, grid, expect):
    assert vc_dimension(intervals_class(n, grid)) == expect


def test_intervals_class_rejects_small_grid():
    with pytest.raises(ValueError):
        intervals_class(2, 8)


def test_intervals_class_refuses_grid_over_cap_before_enumerating():
    # C(61, 6) cut sets would take several GB before the table refused them
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"cap {GROUND_CAP}"):
        intervals_class(3, 60)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(ValueError, match="cap"):
        intervals_class(1, GROUND_CAP + 1)


def test_intervals_class_refuses_negative_n_before_enumerating():
    for grid in (8, 60):  # the count is checked before the grid
        with mock.patch.object(vc_module, "HypothesisTable") as table:
            with pytest.raises(ValueError, match="got n=-1"):
                intervals_class(-1, grid)
        table.assert_not_called()


# sha256 of rows.tobytes() (little-endian int64), pinned from the itertools builder
_INTERVAL_ROW_DIGESTS = {
    (0, 4): ((1, 4), "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"),
    (1, 22): ((254, 22), "f407cd7fa292e1c34eaeb3373ae0e09dc7f99ec0d01f43bb5fec44a4cc34b6e6"),
    (2, 22): ((9109, 22), "154cb44b45ca1429605ae591f46b9c3a493b64afef9ffc4e895cc1f5b78b3539"),
    (3, 16): ((14893, 16), "07359a87b5e41bea492946829f067c88838bf58bb222b3f149330dbd031794d5"),
    (3, 20): ((60460, 20), "c3232a66cdb913a97b74bf3e4b889d8cf3ac58666211b4fd55b9cd551178a41b"),
    (4, 20): ((263950, 20), "e95e9e54d59d5a4c26e1b247aa660a5c9d215434656708e8dbb3c38d20d2ab2d"),
}


@pytest.mark.parametrize("n,grid", sorted(_INTERVAL_ROW_DIGESTS))
def test_intervals_class_rows_match_pinned_digests(n, grid):
    rows = intervals_class(n, grid).rows
    shape, digest = _INTERVAL_ROW_DIGESTS[n, grid]
    assert rows.dtype.str == "<i8" and rows.shape == shape
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


def test_intervals_class_cardinality():
    t = intervals_class(1, 12)
    assert len(t.hypotheses) == 1 + math.comb(13, 2)


@pytest.mark.parametrize("n,grid", [(0, 4), (1, 8), (2, 22), (3, 16)])
def test_intervals_class_makes_each_cut_set_once(n, grid):
    # distinct rows, so the table keeps the array it is handed without copying it
    handed, table = [], vc_module.HypothesisTable
    with mock.patch.object(vc_module, "HypothesisTable",
                           lambda ground, rows: table(ground, handed.append(rows) or rows)):
        t = intervals_class(n, grid)
    assert len(handed[0]) == len(t.rows) == sum(math.comb(grid + 1, 2 * r) for r in range(n + 1))
    assert np.shares_memory(t.rows, handed[0])


def test_patchwise_class_enumeration():
    pw = patchwise_class(3)
    assert pw.cardinality == 27
    assert pw.log2_bound == pytest.approx(3 * math.log2(3))
    # every subset of the 3 arcs is one label's indicator under some assignment
    assert len(pw.one_vs_rest.hypotheses) == 2**3


def test_patchwise_class_degenerate():
    pw = patchwise_class(1)
    assert pw.cardinality == 1
    assert pw.log2_bound == 0.0
    assert vc_dimension(pw.one_vs_rest) == 0


def test_patchwise_one_vs_rest_shatters_representatives():
    pw = patchwise_class(3)
    assert vc_dimension(pw.one_vs_rest) == 3
    assert vc_dimension(patchwise_class(6).one_vs_rest) == 6


def test_patchwise_large_w_reports_bound_only():
    pw = patchwise_class(8)
    assert pw.one_vs_rest is None
    assert pw.cardinality == 8**8
    assert pw.log2_bound == pytest.approx(24.0)


def test_separation_report_small():
    rep = separation_report(w=5, n=1)
    loops = rep.rows[0]
    assert (loops["width_lb"], loops["width_ub"]) == (5, 5)
    assert loops["vc_bound"] == pytest.approx(5 * math.log2(5))
    ivl = rep.rows[1]
    assert (ivl["width_lb"], ivl["width_ub"]) == (1, 1)
    assert ivl["vc"] == 2
    assert "loops" in rep.as_text()


def test_separation_report_degenerate_row():
    rep = separation_report(w=1, n=1)
    loops, ivl = rep.rows
    assert (loops["width_lb"], loops["width_ub"]) == (1, 1)
    assert loops["vc_bound"] == 0.0
    assert (ivl["width_lb"], ivl["width_ub"], ivl["vc"]) == (1, 1, 2)


# -- the tuple-loop table code, kept as the reference for the row matrix ---------


def _dedup_oracle(ground, hyps):
    hyps = list(dict.fromkeys(map(tuple, hyps)))
    if any(len(h) != len(ground) for h in hyps):
        raise ValueError("hypothesis length does not match the ground set")
    return hyps


def _binary_oracle(hyps):
    return all(v in (0, 1) for h in hyps for v in h)


def _binary_elementwise_oracle(arr):
    return all(v in (0, 1) for v in arr.ravel().tolist())


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_is_binary_matches_elementwise_oracle(data):
    # integer arrays are judged by their range alone; floats cell by cell
    dtype = np.dtype(data.draw(st.sampled_from(
        [np.bool_, np.int8, np.uint8, np.int64, np.uint64, np.float64])))
    if dtype.kind == "f":
        values = [0.0, 1.0, -0.0, 0.5, -1.0, 2.0, np.nan, np.inf]
    elif dtype.kind == "b":
        values = [False, True]
    else:  # 0, 1, the nearest values on either side that fit, and the range's ends
        info = np.iinfo(dtype)
        values = [v for v in (0, 1, -1, 2, int(info.min), int(info.max)) if v >= info.min]
    shape = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=2))  # empty ones too
    cells = data.draw(st.lists(st.sampled_from(values), min_size=math.prod(shape),
                               max_size=math.prod(shape)))
    arr = np.array(cells, dtype=dtype).reshape(shape)
    assert _is_binary(arr) == _binary_elementwise_oracle(arr)


def _columns_oracle(hyps, n):
    m = len(hyps)
    cols_bytes = [bytearray((m + 7) // 8) for _ in range(n)]
    for hid, vec in enumerate(hyps):
        byte, bit = hid >> 3, 1 << (hid & 7)
        for i, v in enumerate(vec):
            if v:
                cols_bytes[i][byte] |= bit
    return [int.from_bytes(b, "little") for b in cols_bytes], (1 << m) - 1


def _intervals_oracle(n, grid):
    hyps = []
    for r in range(n + 1):
        for cuts in combinations(range(grid + 1), 2 * r):
            vec = [0] * grid
            for t in range(r):
                for i in range(cuts[2 * t], cuts[2 * t + 1]):
                    vec[i] = 1
            hyps.append(tuple(vec))
    return list(dict.fromkeys(hyps))


def _patchwise_oracle(w):
    ovr = [
        tuple(1 if a[i] == lab else 0 for i in range(w))
        for a in product(range(1, w + 1), repeat=w)
        for lab in range(1, w + 1)
    ]
    return list(dict.fromkeys(ovr))


def _assert_int_rows(hyps):
    assert all(type(h) is tuple and all(type(v) is int for v in h) for h in hyps)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_row_matrix_matches_tuple_oracles(data):
    n = data.draw(st.integers(0, GROUND_CAP))
    label = st.sampled_from([0, 1, 2, False, True])
    pool = data.draw(st.lists(st.lists(label, min_size=n, max_size=n), max_size=12))
    # draws from a small pool repeat rows, so dedup is exercised
    hyps = data.draw(st.lists(st.sampled_from(pool), max_size=40)) if pool else []
    if hyps and data.draw(st.booleans()):
        length = data.draw(st.sampled_from([n - 1, n + 1] if n else [1]))
        hyps.insert(data.draw(st.integers(0, len(hyps))), tuple([0] * length))
    ground = list(range(n))
    try:
        expect = _dedup_oracle(ground, hyps)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            HypothesisTable(ground, hyps)
        return
    t = HypothesisTable(ground, hyps)
    assert t.hypotheses == expect
    assert [list(map(type, h)) for h in t.hypotheses] == [list(map(type, h)) for h in expect]
    assert t.rows.shape == (len(expect), n)
    assert t.binary == _binary_oracle(expect)
    assert _columns(t) == _columns_oracle(expect, n)


@pytest.mark.parametrize("ground, hyps", [
    ([0, 1, 2], []),
    ([0, 1, 2], [(1, 0, 2)]),
    ([0, 1, 2], [(True, False, True), (1, 0, 1), (0, 0, 1)]),
    ([], [(), ()]),
    ([0, 1], [(-0.0, 1.0), (0.0, 1.0), (1.0, 0.0)]),
], ids=["no_hypotheses", "one", "bool_equals_int", "empty_ground", "signed_zero"])
def test_row_matrix_small_tables(ground, hyps):
    t = HypothesisTable(ground, hyps)
    expect = _dedup_oracle(ground, hyps)
    assert t.hypotheses == expect
    assert t.binary == _binary_oracle(expect)
    assert _columns(t) == _columns_oracle(expect, len(ground))
    if expect and t.binary:
        assert vc_dimension(t) == _vc_exhaustive_oracle(t)


def _assert_array_table(arr, ground):
    """The table of an integer or bool array against the tuple oracles, run on
    the array's rows as tuples of Python scalars."""
    expect = _dedup_oracle(ground, arr.tolist())
    t = HypothesisTable(ground, arr)
    # 0/1 rows build no tuple before ``hypotheses`` is read; other rows take the tuple path
    assert ("hypotheses" in t.__dict__) != _binary_oracle(expect)
    assert t.rows.dtype == arr.dtype and t.rows.shape == (len(expect), len(ground))
    assert t.rows.tolist() == [list(h) for h in expect]
    assert t.binary == _binary_oracle(expect)
    assert _columns(t) == _columns_oracle(expect, len(ground))
    assert t.hypotheses == expect
    assert [list(map(type, h)) for h in t.hypotheses] == [list(map(type, h)) for h in expect]
    return t


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_row_array_input_matches_tuple_input(data):
    # intervals_class hands its rows over as one array, deduplicated in numpy;
    # a list of the same rows must give the same table
    n = data.draw(st.integers(0, GROUND_CAP))
    dtype = data.draw(st.sampled_from([np.bool_, np.uint8, np.intp]))
    lo = -1 if dtype is np.intp else 0
    hi = 1 if dtype is np.bool_ or data.draw(st.booleans()) else 2  # binary or not
    pool = data.draw(st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                              min_size=1, max_size=10))
    if n == GROUND_CAP:  # the top bit of a binary row's key
        pool.append([0] * (n - 1) + [1])
    # draws from a small pool repeat rows, so dedup is exercised
    hyps = data.draw(st.lists(st.sampled_from(pool), max_size=40))
    arr = np.array(hyps, dtype=dtype).reshape(len(hyps), n)
    ground = list(range(n))
    t = _assert_array_table(arr, ground)
    ref = HypothesisTable(ground, hyps)
    assert t.rows.tolist() == ref.rows.tolist() and t.binary == ref.binary
    assert t == ref  # by ground set and hypotheses (False == 0)
    if hyps:  # as with a list, no rows means no row of the wrong length
        with pytest.raises(ValueError, match="hypothesis length does not match the ground set"):
            HypothesisTable(list(range(n + 1 if n < GROUND_CAP else n - 1)), arr)


@pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.intp])
@pytest.mark.parametrize("rows", [
    np.zeros((0, 0)), np.zeros((0, 5)), np.zeros((0, GROUND_CAP)), np.zeros((4, 0)),
    np.tile(intervals_class(1, 8).rows, (3, 1)),
    np.eye(GROUND_CAP)[::-1].repeat(3, axis=0),
    np.tile(np.arange(6).reshape(2, 3) % 3, (5, 1)),
    np.array([[2, 0, 0], [0, 1, 0], [1, 1, 0], [0, 1, 0]]),  # bit keys 2, 2, 3, 2
], ids=["no_rows_no_columns", "no_rows", "no_rows_cap", "empty_rows", "intervals_thrice",
        "unit_rows_cap", "nonbinary_repeated", "nonbinary_same_bit_key"])
def test_row_array_corner_cases_match_tuple_oracles(rows, dtype):
    arr = rows.astype(dtype)
    _assert_array_table(arr, list(range(arr.shape[1])))
    # no rows fit any ground set, as a list of no rows does
    assert HypothesisTable([0, 1, 2], np.zeros((0, 5), dtype)).rows.shape == (0, 3)


@pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int64, np.float64])
@pytest.mark.parametrize("shape, n", [((4,), 4), ((1,), 1), ((0,), 0), ((), 0), ((3, 4, 2), 4),
                                      ((3, 4, 1), 4), ((1, 1, 1), 1), ((0, 4, 1), 4)],
                         ids=["1d", "1d_one_point", "1d_empty", "scalar", "3d", "3d_last_axis_1",
                              "3d_one_cell", "3d_no_rows"])
def test_table_refuses_an_array_that_is_not_a_matrix(shape, n, dtype):
    with pytest.raises(ValueError, match="hypothesis length does not match the ground set"):
        HypothesisTable(list(range(n)), np.zeros(shape, dtype=dtype))


def test_vc_dimension_reads_rows_only():
    t = intervals_class(3, 16)
    assert vc_dimension(t) == 6
    assert "hypotheses" not in t.__dict__
    assert len(t.hypotheses) == len(t.rows) == sum(math.comb(17, 2 * r) for r in range(4))


_SHATTER_INTERVALS = ([(1, g) for g in range(8, 23)] + [(2, g) for g in range(12, 23)]
                      + [(3, 16), (3, 20)])  # the benchmark's tables and criterion 6's


# with n = 0 and n = 4 at the smallest grid, 4n + 4 (n = 1..3 are in the list)
@pytest.mark.parametrize("n,grid", _SHATTER_INTERVALS + [(0, 4), (4, 20)])
def test_intervals_class_matches_tuple_builder(n, grid):
    t = intervals_class(n, grid)
    expect = _intervals_oracle(n, grid)
    assert t.hypotheses == expect
    _assert_int_rows(t.hypotheses)
    assert t.ground == [i / (grid - 1) for i in range(grid)]
    assert _columns(t) == _columns_oracle(expect, grid)
    assert vc_dimension(t) == 2 * n


@pytest.mark.parametrize("w", range(1, 7))
def test_patchwise_class_matches_tuple_builder(w):
    pw = patchwise_class(w)
    assert pw.cardinality == w**w
    assert pw.one_vs_rest.hypotheses == _patchwise_oracle(w)
    _assert_int_rows(pw.one_vs_rest.hypotheses)
    assert pw.one_vs_rest.ground == list(range(w))
    # w = 1 has one hypothesis, so nothing is shattered
    assert vc_dimension(pw.one_vs_rest) == (w if w > 1 else 0)


# -- the pruned search against the unpruned one and a pattern-set model -------


def _vc_dfs_oracle(table):
    """The unpruned depth-first search: visits every shattered set."""
    cols, full = _columns(table)
    n = len(table.ground)

    def grow(start, cells):
        best = 0
        for j in range(start, n):
            split = []
            for m in cells:
                ones = m & cols[j]
                if ones == 0 or ones == m:
                    break
                split += (ones, m ^ ones)
            else:
                best = max(best, 1 + grow(j + 1, split))
        return best

    return grow(0, [full])


def _pruned_search_oracle(table):
    """The pruning rules on pattern sets: the VC dimension, the points
    whose column the search reads, in order, and how often the look-ahead
    found a partner k or none and the pattern rule skipped or passed S + j."""
    n = len(table.ground)
    best, reads, built = 0, [], 0
    outcomes = dict.fromkeys(["partner", "no partner", "skipped", "passed"], 0)
    held = {}  # (row after j, r) -> the r-bit patterns among its subsequences

    def holds_every_pattern(s, j, r):
        """Each pattern on s + j is realised by hypotheses that, together,
        hold every r-bit pattern as a subsequence of their rows after j."""
        pats = {}
        for h in table.hypotheses:
            after = h[j + 1:]
            if (after, r) not in held:
                held[after, r] = {tuple(after[i] for i in c)
                                  for c in combinations(range(len(after)), r)}
            pats.setdefault(tuple(h[i] for i in s + (j,)), set()).update(held[after, r])
        return all(len(p) == 2 ** r for p in pats.values())

    def grow(start, s):
        nonlocal best, built
        for j in range(start, n):
            need = best - len(s)
            if len(s) + n - j <= best:
                return
            reads.append(j)
            if need == 1:
                for k in range(j + 1, n):
                    reads.append(k)
                    if _shattered_oracle(table, s + (j, k)):
                        outcomes["partner"] += 1
                        break
                else:
                    outcomes["no partner"] += 1
                    continue
            if not _shattered_oracle(table, s + (j,)):
                continue
            if need in (3, 4):
                for r in range(built + 1, need + 1):  # each pattern length's masks, once
                    reads.extend(range(n - r, 0, -1))
                built = max(built, need)
                if not holds_every_pattern(s, j, need):
                    outcomes["skipped"] += 1
                    continue
                outcomes["passed"] += 1
            best = max(best, len(s) + 1)
            grow(j + 1, s + (j,))

    grow(0, ())
    return best, reads, outcomes


class _ReadLog(list):
    """A column list that records every index read from it."""

    def __init__(self, cols):
        super().__init__(cols)
        self.reads = []

    def __getitem__(self, j):
        self.reads.append(j)
        return super().__getitem__(j)


def _vc_with_reads(table):
    logs = []

    def logged(t):
        cols, full = _columns(t)
        logs.append(_ReadLog(cols))
        return logs[-1], full

    with mock.patch.object(vc_module, "_columns", logged):
        value = vc_dimension(table)
    return value, logs[0].reads


def _planted_table(rnd, n, m, planted):
    """m random rows on n points, plus all 2^planted patterns on a random
    set of ``planted`` points (random elsewhere), so VC >= planted."""
    rows = [[rnd.randint(0, 1) for _ in range(n)] for _ in range(m)]
    if planted:
        pts = rnd.sample(range(n), planted)
        for pat in range(1 << planted):
            row = [rnd.randint(0, 1) for _ in range(n)]
            for b, i in enumerate(pts):
                row[i] = (pat >> b) & 1
            rows.append(row)
    rnd.shuffle(rows)
    return HypothesisTable(list(range(n)), rows)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 12), m=st.integers(1, 300), planted=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1))
def test_pruned_search_matches_oracles(n, m, planted, seed):
    planted = min(planted, n) if planted >= 3 else 0  # planted sets of 3..6 points
    t = _planted_table(random.Random(seed), n, max(1, m - (1 << planted)), planted)
    value, reads = _vc_with_reads(t)
    assert value == _vc_dfs_oracle(t)
    assert value >= planted
    expect, expect_reads, _ = _pruned_search_oracle(t)
    assert (value, reads) == (expect, expect_reads)
    if n <= 9:
        assert value == _vc_exhaustive_oracle(t)


def _outcome_tables():
    rnd = random.Random(47)
    for _ in range(40):
        n = rnd.randint(6, 12)
        yield _planted_table(rnd, n, rnd.randint(10, 120), rnd.randint(3, min(6, n)))


def test_look_ahead_takes_both_outcomes():
    found = [0, 0]
    for t in _outcome_tables():
        value, reads, outcomes = _pruned_search_oracle(t)
        assert _vc_with_reads(t) == (value, reads)
        found = [found[0] + outcomes["partner"], found[1] + outcomes["no partner"]]
    assert min(found) > 0


def test_pattern_rule_skips_and_passes():
    # the planted tables above, then interval classes, whose many later points
    # give the rule both outcomes
    tables = list(_outcome_tables())
    tables += [HypothesisTable(list(range(g)), _intervals_oracle(n, g))
               for n, g in [(2, 7), (2, 9), (3, 8), (3, 9)]]
    tables.append(intervals_class(2, 12))
    found = {"skipped": 0, "passed": 0}
    for i, t in enumerate(tables):
        value, reads, outcomes = _pruned_search_oracle(t)
        assert _vc_with_reads(t) == (value, reads)
        if i >= 40:  # each interval class alone skips some sets
            assert outcomes["skipped"] > 0
        found = {k: v + outcomes[k] for k, v in found.items()}
    assert min(found.values()) > 0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 3), grid=st.integers(5, 10), seed=st.integers(0, 2**32 - 1),
       keep=st.floats(0.05, 1.0))
def test_interval_row_subsets_match_exhaustive_oracle(n, grid, seed, keep):
    # interval classes and their subsets: VC 3 and up on few points, where the
    # pattern rule fires; the tuple builder has no grid floor
    rows = _intervals_oracle(n, grid)
    rows = random.Random(seed).sample(rows, max(1, round(keep * len(rows))))
    t = HypothesisTable(list(range(grid)), rows)
    assert vc_dimension(t) == _vc_exhaustive_oracle(t)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 12])
def test_vc_edge_tables(n):
    ground = list(range(n))
    power_set = [tuple((m >> i) & 1 for i in ground) for m in range(1 << n)]
    assert vc_dimension(HypothesisTable(ground, power_set)) == n
    for row in (power_set[0], power_set[-1]):  # a single hypothesis
        assert vc_dimension(HypothesisTable(ground, [row])) == 0
    if n:  # the power set without its last row: n points no longer shattered
        t = HypothesisTable(ground, power_set[:-1])
        assert vc_dimension(t) == n - 1 == _vc_exhaustive_oracle(t)


def test_four_interval_class_vc():
    assert vc_dimension(intervals_class(4, 20)) == 8


def test_search_leaves_no_cycles():
    t = intervals_class(2, 14)  # builds the 3- and 4-bit pattern masks
    gc.collect()
    gc.disable()
    try:
        assert vc_dimension(t) == 4
        assert gc.collect() == 0
    finally:
        gc.enable()
