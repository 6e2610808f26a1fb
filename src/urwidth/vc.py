"""Brute-force VC dimension and the width/VC separation report.

VC dimension is computed exactly by a depth-first shattering search.
Each point is a bitmask over hypotheses; a shattered set carries one
nonempty hypothesis mask per +/- pattern on it, and adding a point splits
every mask by that point's column.  The set stays shattered iff no half
is empty, and the search only extends shattered sets, in increasing
point order, since every prefix of a shattered set is shattered.  This
keeps grids of a few tens of points and tens of thousands of hypotheses
tractable.

Two hypothesis classes are built here:

* ``intervals_class`` -- indicators of unions of at most n grid-aligned
  closed intervals on [0, 1]; VC dimension 2n given a large enough grid.
* ``patchwise_class`` -- classifiers constant on each of w designated
  safe arcs; w^w assignments, hence the log2-cardinality bound
  w*log2(w).  A one-vs-rest indicator family is emitted for binary
  shattering questions.

``separation_report`` puts width brackets (from the coverings module,
verbatim) next to the VC numbers to exhibit both separation directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

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


@dataclass
class HypothesisTable:
    """Finite hypothesis class: ordered ground set and label vectors."""

    ground: list
    hypotheses: list[tuple]

    def __post_init__(self):
        if len(self.ground) > GROUND_CAP:
            raise ValueError(
                f"ground set of size {len(self.ground)} exceeds the cap {GROUND_CAP}"
            )
        self.hypotheses = list(dict.fromkeys(map(tuple, self.hypotheses)))
        if any(len(h) != len(self.ground) for h in self.hypotheses):
            raise ValueError("hypothesis length does not match the ground set")

    @property
    def binary(self) -> bool:
        return all(v in (0, 1) for h in self.hypotheses for v in h)


def _columns(table: HypothesisTable) -> tuple[list[int], int]:
    """Per-point bitmask over hypotheses (bit h set iff h labels the point 1)."""
    m = len(table.hypotheses)
    n = len(table.ground)
    cols_bytes = [bytearray((m + 7) // 8) for _ in range(n)]
    for hid, vec in enumerate(table.hypotheses):
        byte, bit = hid >> 3, 1 << (hid & 7)
        for i, v in enumerate(vec):
            if v:
                cols_bytes[i][byte] |= bit
    cols = [int.from_bytes(b, "little") for b in cols_bytes]
    return cols, (1 << m) - 1


def vc_dimension(table: HypothesisTable) -> int:
    """Exact VC dimension of a binary table by depth-first shattering search."""
    if not table.hypotheses:
        raise ValueError("empty hypothesis set")
    if not table.binary:
        raise ValueError(
            "multiclass table: binary VC undefined here, use the "
            "log2-cardinality bound instead"
        )
    cols, full = _columns(table)
    n = len(table.ground)

    def grow(start: int, cells: list[int]) -> int:
        """Most points >= ``start`` that extend the current shattered set;
        ``cells`` holds the hypotheses realizing each of its patterns."""
        best = 0
        for j in range(start, n):
            split = []
            for m in cells:
                ones = m & cols[j]
                if ones == 0 or ones == m:
                    break  # this pattern cannot take both labels on j
                split += (ones, m ^ ones)
            else:
                best = max(best, 1 + grow(j + 1, split))
        return best

    return grow(0, [full])


def intervals_class(n: int, grid: int) -> HypothesisTable:
    """Indicators of unions of at most ``n`` disjoint grid intervals.

    Enumerated by boundary positions: exactly r runs of ones correspond
    to 2r strictly increasing cut indices among grid+1 gaps, so the class
    has sum_r C(grid+1, 2r) members.  Needs grid >= 4n + 4 to witness the
    full 2n shattering.
    """
    if grid < 4 * n + 4:
        raise ValueError(f"grid {grid} too small: need at least {4 * n + 4} points")
    ground = [i / (grid - 1) for i in range(grid)]
    hyps = []
    for r in range(n + 1):
        for cuts in combinations(range(grid + 1), 2 * r):
            vec = [0] * grid
            for t in range(r):
                for i in range(cuts[2 * t], cuts[2 * t + 1]):
                    vec[i] = 1
            hyps.append(tuple(vec))
    return HypothesisTable(ground, hyps)


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
    under every assignment, over one representative point per arc.
    """
    if w < 1:
        raise ValueError("need at least one arc")
    bound = w * math.log2(w) if w > 1 else 0.0
    if w > 6:
        return PatchwiseClass(w, w**w, bound, None)
    ground = list(range(w))
    assignments = list(product(range(1, w + 1), repeat=w))
    ovr = [
        tuple(1 if a[i] == lab else 0 for i in range(w))
        for a in assignments
        for lab in range(1, w + 1)
    ]
    return PatchwiseClass(w, len(assignments), bound, HypothesisTable(ground, ovr))


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
    brute-force VC dimension 2n on a grid of 4n + 8 points.
    """
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
        if nn not in _INTERVAL_INSTANCES:
            raise ValueError(f"no standard interval instance for n={nn}")
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
