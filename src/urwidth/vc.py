"""Brute-force VC dimension and the width/VC separation report.

VC dimension is computed exactly by a depth-first shattering search.
A table is a deduplicated 0/1 integer matrix (hypotheses x points); a
label other than 0 or 1 is refused.  Its rows are deduplicated without
a tuple per row: their bit keys are sorted, and only when two
neighbours are equal does a stable unique pick each row's first
occurrence.  The per-point columns are read from the matrix, and the
tuples of ``hypotheses`` are built only when read; the search never
reads them.  Each point is a bitmask over hypotheses (its
column packed into a Python int); a shattered set S carries one
nonempty hypothesis mask (cell) per +/- pattern on it, and adding a
point splits every cell by that point's column.  S + j stays shattered
iff no half is empty, and the search only extends shattered sets, in
increasing point order, since every subset of a shattered set is
shattered.  Three rules prune it without changing the result; write
need = best - |S| for the points S + j must still gain after j to beat
best:

* Bound.  ``best``, the largest shattered set found so far, is shared
  by the whole search.  Adding point j to S can lead to at most
  |S| + (n - j) points, so the loop over j stops once that is <= best.
* Look-ahead.  When need == 1, S + j can raise best only through
  a shattered S + {j, k}, k > j.  Each such k is tested on S's cells
  directly (all four quadrants of every cell under columns j and k
  nonempty), and S + j is split and searched only if some k passes.
* Patterns.  When need is 3 or 4, S + j is searched only if every
  half (cell of S + j) holds, for every pattern p of need bits, a
  hypothesis whose row on the points after j has p as a subsequence.
  Proof: if S + j + T is shattered with |T| >= need, every half
  realises every pattern on the first need points of T.  The masks of
  the hypotheses holding each pattern after each point are built per
  pattern length, the first time that length is tested, from the
  columns: W_bp[j] = W_bp[j + 1] | (col_b[j + 1] & W_p[j + 1]).  With
  more than 4 points needed the cells are large and the test almost
  never fails, so it is not made; with 2 it costs more than it saves.

The look-ahead, the split and the pattern test try first the cell that
failed last (it is swapped to the front of the list), since the same
cell tends to fail again; the pattern test checks each half first
against the hypotheses that hold every pattern at once.  This keeps
grids of a few tens of points and hundreds of thousands of hypotheses
tractable.

Two hypothesis classes are built here:

* ``intervals_class`` -- indicators of unions of at most n grid-aligned
  closed intervals on [0, 1]; VC dimension 2n given a large enough grid.
  Its rows come from their cut sets, which numpy grows a whole level at
  a time in lexicographic order, each with its bit key, so no Python
  work is done per row.
* ``patchwise_class`` -- classifiers constant on each of w designated
  safe arcs; w^w assignments, hence the log2-cardinality bound
  w*log2(w).  A one-vs-rest indicator family is emitted for binary
  shattering questions.  Deduplicated, that family is exactly the 2^w
  subsets of arcs (only the full set when w = 1): every indicator marks
  some subset, and for w >= 2 the subset S is label 1's indicator under
  "1 on S, 2 elsewhere" and, when S misses arc 0, label 2's under
  "2 on S, 1 elsewhere".  So the subsets are listed directly.

``separation_report`` puts width brackets (from the coverings module,
verbatim) next to the VC numbers to exhibit both separation directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product

import numpy as np

from .coverings import WidthBracket, width_bracket
from .problems import bouquet_problem, interval_union_problem

__all__ = [
    "HypothesisTable",
    "PatchwiseClass",
    "SeparationReport",
    "vc_dimension",
    "intervals_class",
    "patchwise_class",
    "separation_report",
]

GROUND_CAP = 22


class HypothesisTable:
    """Finite binary hypothesis class: ordered ground set and 0/1 label vectors.

    ``rows`` is the store: the deduplicated vectors as one 0/1 bool or
    integer matrix (hypotheses x points), in first-occurrence order.  A
    list is read by numpy after its rows' lengths are checked; an array
    must be 2-D.  Any label other than 0 or 1 is refused (numpy reads a
    list of no labels as floats; it holds no other label).  Rows are
    deduplicated by their bits as one integer key: the keys are sorted,
    and when no two neighbours are equal the array is kept as ``rows``,
    uncopied; otherwise each row's first occurrence is kept.
    ``hypotheses`` lists the rows as tuples of Python scalars, built from
    ``rows`` on first read.  Tables compare equal when their ground sets
    and rows are equal.
    """

    def __init__(self, ground: list, hypotheses):
        if len(ground) > GROUND_CAP:
            raise ValueError(
                f"ground set of size {len(ground)} exceeds the cap {GROUND_CAP}"
            )
        n, rows = len(ground), hypotheses
        self.ground = ground
        # a list's row lengths are checked before numpy reads it, as numpy refuses a
        # ragged list; a list of no rows fits any ground set, as a matrix of no rows does
        if not isinstance(rows, np.ndarray) and all(len(h) == n for h in rows):
            rows = np.array(rows) if len(rows) else np.zeros((0, n))
        if not isinstance(rows, np.ndarray) or rows.ndim != 2 or len(rows) and rows.shape[1] != n:
            raise ValueError("hypothesis length does not match the ground set")
        if rows.size and not (rows.dtype.kind in "biu" and rows.min() >= 0 and rows.max() <= 1):
            raise ValueError("labels must be 0 or 1: binary VC is undefined for any other "
                             "label, use the log2-cardinality bound instead")
        rows = rows.reshape(len(rows), n)  # no rows: any width
        # exact: n <= GROUND_CAP bits fit an int64 key
        keys = rows.astype(np.int64, copy=False) @ (1 << np.arange(n, dtype=np.int64))
        ordered = np.sort(keys)
        if (ordered[1:] == ordered[:-1]).any():  # a repeated row: keep first occurrences
            rows = rows[np.sort(np.unique(keys, return_index=True)[1])]
        self.rows = rows  # an array of distinct rows is kept, not copied

    @cached_property
    def hypotheses(self) -> list[tuple]:
        # built column-wise: faster and smaller at peak than tuples of ``tolist()`` rows
        return list(zip(*self.rows.T.tolist())) or [()] * len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, HypothesisTable):
            return NotImplemented
        return self.ground == other.ground and np.array_equal(self.rows, other.rows)

    def __repr__(self) -> str:
        return f"HypothesisTable(ground={self.ground!r}, hypotheses={self.hypotheses!r})"


def _columns(table: HypothesisTable) -> tuple[list[int], int]:
    """Per-point bitmask over hypotheses (bit h set iff h labels the point 1)."""
    packed = np.packbits(table.rows.T != 0, axis=1, bitorder="little")
    cols = [int.from_bytes(b.tobytes(), "little") for b in packed]
    return cols, (1 << len(table.rows)) - 1


def _pattern_level(prev: list[list[int]], cols: list[int], full: int) -> list[list[int]]:
    """The masks of the (r + 1)-bit patterns from those of the r-bit ones.

    ``prev[j]`` lists, per r-bit pattern p, the hypotheses whose row on the
    points after j has p as a subsequence; the result lists the same for
    the patterns 0p, then 1p: W_bp[j] = W_bp[j + 1] | (col_b[j + 1] &
    W_p[j + 1]).  A point from n - 1 - r on has too few later points for
    r + 1 bits and keeps zeros, so the columns are read from n - 1 - r down
    to 1.
    """
    n, r = len(prev), len(prev[0]).bit_length() - 1
    zeros = ones = [0] * len(prev[0])
    level = [zeros + ones] * n
    for j in range(n - 2 - r, -1, -1):
        one, after = cols[j + 1], prev[j + 1]
        zero = full ^ one
        zeros = [x | (zero & w) for x, w in zip(zeros, after)]
        ones = [x | (one & w) for x, w in zip(ones, after)]
        level[j] = zeros + ones
    return level


def _missing_half(halves: list[int], masks: list[int], anyone: int) -> int:
    """The index of the first half that meets no mask of ``masks``, or -1; a
    half meeting ``anyone`` (a subset of every mask) meets them all."""
    for i, h in enumerate(halves):
        if not (h & anyone or all(map(h.__and__, masks))):
            return i
    return -1


def vc_dimension(table: HypothesisTable) -> int:
    """Exact VC dimension of a binary table by a pruned depth-first
    shattering search (see the module docstring)."""
    if not len(table.rows):
        raise ValueError("empty hypothesis set")
    cols, full = _columns(table)
    n = len(table.ground)
    best = 0
    levels = [[[full]] * n]  # levels[r][j]: per r-bit pattern, its mask after j
    every = [[full] * n]  # every[r][j]: the hypotheses holding all r-bit patterns after j

    def grow(start: int, depth: int, cells: list[int]) -> None:
        """Extend the shattered set S (``depth`` points, all below ``start``)
        by points >= ``start``; ``cells`` holds the hypotheses realizing
        each pattern on S, the cell that failed last first."""
        nonlocal best
        need = best - depth
        for j in range(start, n):
            if n - j <= need:
                return  # S, j and every later point cannot beat best
            cj = cols[j]
            if need == 1:
                for k in range(j + 1, n):
                    ck = cols[k]
                    for i, m in enumerate(cells):
                        a = m & cj
                        ak = a & ck
                        mk = m & ck
                        if not ak or ak == a or ak == mk or a | mk == m:
                            cells[0], cells[i] = m, cells[0]
                            break  # m misses a pattern on j, k
                    else:
                        break  # S + {j, k} is shattered
                else:
                    continue  # S + j cannot beat best
            split = []
            for i, m in enumerate(cells):
                ones = m & cj
                if ones == 0 or ones == m:
                    cells[0], cells[i] = m, cells[0]
                    break  # this pattern cannot take both labels on j
                split += (ones, m ^ ones)
            else:
                if need == 3 or need == 4:
                    while len(levels) <= need:
                        levels.append(_pattern_level(levels[-1], cols, full))
                        every.append([reduce(int.__and__, w) for w in levels[-1]])
                    i = _missing_half(split, levels[need][j], every[need][j])
                    if i >= 0:
                        i >>= 1
                        cells[0], cells[i] = cells[i], cells[0]
                        continue  # this cell has a half missing a pattern after j
                best = max(best, depth + 1)
                grow(j + 1, depth + 1, split)
                need = best - depth

    try:
        grow(0, 0, [full])
    finally:
        del grow  # it refers to itself: break the cycle, freeing the masks now
    return best


def intervals_class(n: int, grid: int) -> HypothesisTable:
    """Indicators of unions of at most ``n`` disjoint grid intervals.

    Enumerated by boundary positions: exactly r runs of ones correspond
    to 2r strictly increasing cut indices c_1 < ... < c_2r among grid+1
    gaps, so the class has sum_r C(grid+1, 2r) members; the run
    [c_2i-1, c_2i) sets bits c_2i-1 .. c_2i - 1, so a row's bit key is
    sum_i (1 << c_2i) - (1 << c_2i-1), and bit i of the key labels point i.
    The cut sets of each r are grown in numpy one cut at a time, in
    lexicographic order, with their keys: a prefix ending at a, with t
    cuts still to place after this one, extends to each b in
    a + 1 .. grid - t.  Needs grid >= 4n + 4 to witness the full 2n
    shattering.
    """
    if n < 0:
        raise ValueError(f"interval count n must be at least 0, got n={n}")
    if grid < 4 * n + 4:
        raise ValueError(f"grid {grid} too small: need at least {4 * n + 4} points")
    if grid > GROUND_CAP:  # before C(grid + 1, 2n) cut sets are enumerated
        raise ValueError(f"grid {grid} exceeds the ground-set cap {GROUND_CAP}")
    ground = [i / (grid - 1) for i in range(grid)]
    keys = [np.zeros(1, dtype=np.int64)]  # r = 0: the empty union
    for r in range(1, n + 1):
        key, last = keys[0], np.full(1, -1)  # one empty prefix
        for i in range(2 * r):
            counts = grid - (2 * r - 1 - i) - last  # the choices of the next cut per prefix
            ends = np.cumsum(counts)
            # prefix p's choices are last_p + 1, last_p + 2, ...: a ragged arange
            last = np.arange(ends[-1]) - np.repeat(ends - counts - last - 1, counts)
            key = np.repeat(key, counts) + (-1 if i % 2 == 0 else 1) * (1 << last)
        keys.append(key)
    keys = np.concatenate(keys)
    return HypothesisTable(ground, (keys[:, None] >> np.arange(grid)) & 1)


@dataclass
class PatchwiseClass:
    """Classifiers constant on each of w designated safe arcs."""

    w: int
    cardinality: int
    log2_bound: float
    one_vs_rest: HypothesisTable | None  # w <= 6 only


def patchwise_class(w: int) -> PatchwiseClass:
    """Assignments of labels [w] to w arcs; indicator table only for small w.

    The binary ``one_vs_rest`` family holds the indicator of each label
    under every assignment, over one representative point per arc, in
    the order ``product`` first meets it: S first comes from "1 on S, 2
    elsewhere" (label 1) if it holds arc 0, else from "2 on S, 1
    elsewhere" (label 2).  So S holding arc 0 comes just before its
    complement, these pairs ordered by the complement's bits on arcs 1..w-1.
    """
    if w < 1:
        raise ValueError("need at least one arc")
    bound = w * math.log2(w) if w > 1 else 0.0
    if w > 6:
        return PatchwiseClass(w, w**w, bound, None)
    ovr = [row for rest in product((0, 1), repeat=w - 1)
           for row in ((1, *(1 - b for b in rest)), (0, *rest))]
    if w == 1:
        ovr = ovr[:1]  # the only label marks the only arc
    return PatchwiseClass(w, w**w, bound, HypothesisTable(list(range(w)), ovr))


@dataclass
class SeparationReport:
    rows: list[dict]

    def as_text(self) -> str:
        lines = [
            f"{'family':<16}{'instance':<12}{'width lb':>9}{'width ub':>9}"
            f"{'VC / bound':>14}"
        ]
        for r in self.rows:
            lines.append(
                f"{r['family']:<16}{r['instance']:<12}{r['width_lb']:>9}"
                f"{r['width_ub']:>9}{r['vc_display']:>14}"
            )
        return "\n".join(lines)


# standard interval instances used in the report, one per class count
_INTERVAL_INSTANCES = {
    1: [(0.2, 0.4)],
    2: [(0.1, 0.25), (0.55, 0.75)],
    3: [(0.05, 0.15), (0.35, 0.5), (0.7, 0.85)],
}


def separation_report(w: int, n: int) -> SeparationReport:
    """Both separation directions in one table.

    Row A: the w-loop problem (L = 10, gamma = 1, h = 0.5) at D0 = 4:
    its certified width bracket next to the patchwise class's
    log2-cardinality bound w*log2(w).  Rows B: interval problems of 1..n
    intervals, width bracket (1 for D0 >= 1) next to the exact
    brute-force VC dimension 2n on a grid of 4n + 8 points.  Needs
    1 <= n <= 3: without an interval row the VC direction is missing,
    and only n <= 3 has a standard instance.
    """
    if n not in _INTERVAL_INSTANCES:  # keys 1..3, so every row below has one
        raise ValueError(f"interval count n must be at least 1 and at most "
                         f"{max(_INTERVAL_INSTANCES)}, got n={n}")
    rows = []
    pb = bouquet_problem(w, 10.0, 1.0, 0.5)
    br: WidthBracket = width_bracket(pb, 4.0)
    pw = patchwise_class(w)
    rows.append(
        {
            "family": "loops",
            "instance": f"w={w}",
            "width_lb": br.lb,
            "width_ub": br.ub,
            "vc": None,
            "vc_bound": pw.log2_bound,
            "vc_display": f"<= {pw.log2_bound:.2f}",
        }
    )
    for nn in range(1, n + 1):
        ip = interval_union_problem(_INTERVAL_INSTANCES[nn], 0.05, 101)
        ibr = width_bracket(ip, 1.0)
        table = intervals_class(nn, 4 * nn + 8)
        vc = vc_dimension(table)
        rows.append(
            {
                "family": "intervals",
                "instance": f"n={nn}",
                "width_lb": ibr.lb,
                "width_ub": ibr.ub,
                "vc": vc,
                "vc_bound": None,
                "vc_display": str(vc),
            }
        )
    return SeparationReport(rows)
