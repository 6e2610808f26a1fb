"""The streaming Evaluate-Detect-Construct machine.

State is a growing library of local classifiers: each entry is a frozen
geodesic ball around the point whose arrival raised the alarm, carrying
the constant label observed there.  Detection computes the
prediction residue min_i max(0, d(x, center_i) - radius_i); at residue
above the tolerance the machine constructs a new entry, otherwise it
evaluates with the best-matching entry.  Every step logs one immutable
``StepRecord`` (a named tuple).  Entries and records are append-only:
none is modified after insertion, and replaying the event log reproduces
the library bit-exactly.

A stream is folded a block of samples at a time: one residue matrix
against the library per block, one candidate matrix for the entries the
block constructs, and one append of the block's records, each equal bit
for bit to the one-sample-at-a-time scan.  Blocks start at FOLD_BLOCK
samples and double after each block that constructs nothing, up to
FOLD_BLOCK_MAX; a block that constructs sends the next back to
FOLD_BLOCK.  The candidate matrix, the one cost quadratic in the block,
only arises in blocks that construct, and at most FOLD_BLOCK_MAX**2
floats (2 MB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, islice, repeat
from operator import attrgetter, eq
from typing import NamedTuple

import numpy as np

from .spaces import MetricSpace

__all__ = [
    "LibraryEntry",
    "StepRecord",
    "MachineState",
    "Trace",
    "machine_new",
    "alarm",
    "step",
    "run_stream",
    "replay_log",
]

_EVAL_TOL = 1e-12
# Samples in a fold block after a block that constructs.  Of 64, 128, 192
# and 256, 128 folds the stream benchmark's episodes fastest: a block that
# starts on an empty library makes every row a candidate, and its candidate
# matrix (at most block**2 floats) grows with the square of the block.
FOLD_BLOCK = 128
# Largest block, reached by doubling after blocks that construct nothing.
# A saturated 12-entry library folds 1,700 samples in 1.47 ms in blocks of
# 128, 1.17 ms in blocks of 512 and 1.08 ms in blocks of 1,024; 512 takes
# most of that gain and bounds the candidate matrix at 512**2 floats (2 MB).
FOLD_BLOCK_MAX = 4 * FOLD_BLOCK


@dataclass(frozen=True)
class LibraryEntry:
    """One frozen local classifier: a constant-label ball."""

    center: object
    radius: float
    label: object
    step_index: int


class StepRecord(NamedTuple):
    """One logged step: an immutable named tuple (indexable, unpackable,
    equal to a plain tuple of the same values)."""

    index: int
    kind: str  # "evaluate" or "construct"
    point: object
    label: object
    residue: float
    entry: int
    predicted: object = None
    correct: bool | None = None


@dataclass
class MachineState:
    space: MetricSpace
    tau: float
    d0: float
    r_construct: float
    labels: tuple | None
    entries: list[LibraryEntry] = field(default_factory=list)
    log: list[StepRecord] = field(default_factory=list)

    @property
    def library_size(self) -> int:
        return len(self.entries)


def machine_new(
    space: MetricSpace,
    tau: float,
    d0: float,
    r_construct: float,
    labels=None,
) -> MachineState:
    """Fresh machine: empty library, empty log.

    Constructed balls must respect the locality scale, hence the
    requirement 0 < 2*r_construct <= D0.  ``labels``, the concept space,
    is None (any label) or a nonempty collection.
    """
    if not 0 <= tau < math.inf:  # NaN fails too
        raise ValueError(f"tolerance must be nonnegative and finite, got tau={tau}")
    if not math.isfinite(d0):
        raise ValueError(f"D0 must be finite, got D0={d0}")
    if not 0 < 2 * r_construct <= d0:
        raise ValueError(
            f"need 0 < 2*r_construct <= D0, got r_construct={r_construct}, D0={d0}"
        )
    if labels is not None and not (labels := tuple(labels)):
        raise ValueError("empty label set: the concept space needs at least one label "
                         "(labels=None accepts any)")
    return MachineState(space, tau, d0, r_construct, labels)


def _residues(state: MachineState, xs) -> np.ndarray:
    """max(0, d(x, center) - radius): one row per point of ``xs``, one
    column per library entry."""
    d = state.space.dists(xs, [e.center for e in state.entries])
    # fmax, like Python's max(0.0, v), gives 0.0 where v is NaN
    return np.fmax(0.0, d - np.array([e.radius for e in state.entries], dtype=float))


def alarm(state: MachineState, x) -> float:
    """Prediction residue of ``x``: distance beyond the nearest entry's
    ball, +inf on an empty library."""
    if not state.entries:
        return math.inf
    return _residues(state, [x])[0].min().item()


def _fold(state: MachineState, samples) -> list[StepRecord]:
    """Apply one Evaluate-Detect-Construct cycle per sample, in order;
    returns the new records, which are also appended to the log.

    Residue within tolerance: evaluate with the minimal-residue entry,
    lowest index on ties; constructed entries are constant, so the
    prediction is that entry's label.  Otherwise: construct a new entry,
    a ball of radius r_construct around the alarming point.

    Samples are taken a block at a time: FOLD_BLOCK samples at first and
    after any block that constructs, twice the last block's size after one
    that constructs nothing, up to FOLD_BLOCK_MAX.  One residue matrix
    scores the block against the library as it stands at the block's
    start.  Residues only fall as entries are added, so only the rows above
    the tolerance there can construct.  From the block's first construct c
    on, one candidate matrix holds the residues of rows c+1.. against a
    ball around every such row: a scan down its candidate rows picks the
    constructs in order, and each later row takes the first minimal
    residue among the entries made before it (lowest index on ties, the
    library's own first).
    ``dists`` equals ``dist`` entry by entry, so each residue and entry
    equals a per-sample scan of the library bit for bit.  The block's
    records are built from the residue and entry lists and appended in one
    go.  A sample that is not a (point, label) pair, or whose label lies
    outside ``state.labels``, raises after every sample before it has
    applied.  A label is looked up in a set of the hashable labels first,
    and in ``state.labels`` itself when that misses.
    """
    limit = state.tau + _EVAL_TOL
    first = len(state.log)
    entry_labels = [e.label for e in state.entries]
    labels = state.labels
    try:
        known = frozenset(labels or ())
    except TypeError:  # an unhashable label: every lookup takes the tuple test
        known = frozenset()
    samples = iter(samples)
    size = FOLD_BLOCK
    while block := list(islice(samples, size)):
        xs, ys, error = [], [], None
        add_x, add_y = xs.append, ys.append
        for sample in block:
            try:
                x, y = sample
                if labels is not None:
                    try:
                        hit = y in known
                    except TypeError:  # unhashable
                        hit = False
                    if not hit and y not in labels:
                        raise ValueError(f"label {y!r} outside the concept space {labels}")
            except (TypeError, ValueError) as exc:  # raised once the samples before it apply
                error = exc
                break
            add_x(x)
            add_y(y)
        n, base, made = len(xs), len(state.log), len(state.entries)
        if made and n:
            res = _residues(state, xs)
            arg = res.argmin(axis=1)
            best = res[np.arange(n), arg]
        else:  # every residue is +inf: the first sample constructs
            best, arg = np.full(n, math.inf), np.full(n, -1)
        cand = np.flatnonzero(best > limit)  # rows that can construct
        cons = cand[:1].tolist()  # rows that construct, in order
        if cons and (c := cons[0]) < n - 1:
            # residues of rows c+1.. against a ball around every candidate
            near = np.fmax(0.0, state.space.dists(xs[c + 1 :], [xs[i] for i in cand.tolist()])
                           - state.r_construct)
            # far[i, k]: candidate i + 1 lies above the limit from candidate k's ball
            far = near[cand[1:] - c - 1] > limit
            keep, alive = [0], far[:, 0].copy()
            while alive.any():
                k = int(alive.argmax()) + 1  # the next candidate to construct
                keep.append(k)
                alive[:k] = False  # itself included, whatever d(x, x)
                alive &= far[:, k]
            cons = cand[keep].tolist()
            near = near[:, keep]
            # a row sees only the entries constructed before it
            near[np.arange(n - c - 1)[:, None] < cand[keep] - c] = math.inf
            new_arg = near.argmin(axis=1)
            new_best = near[np.arange(n - c - 1), new_arg]
            closer = np.flatnonzero(new_best < best[c + 1 :])
            best[closer + c + 1] = new_best[closer]
            arg[closer + c + 1] = new_arg[closer] + made
        residues, ent = best.tolist(), arg.tolist()
        for k, c in enumerate(cons):
            ent[c] = made + k
            entry_labels.append(ys[c])
            state.entries.append(LibraryEntry(xs[c], state.r_construct, ys[c], base + c))
        preds = [entry_labels[i] for i in ent]
        recs = list(map(tuple.__new__, repeat(StepRecord),
                        zip(range(base, base + n), repeat("evaluate"), xs, ys, residues, ent,
                            preds, map(eq, preds, ys))))
        for c in cons:
            recs[c] = StepRecord(base + c, "construct", xs[c], ys[c], residues[c], ent[c])
        state.log += recs
        if error is not None:
            raise error
        size = FOLD_BLOCK if cons else min(2 * size, FOLD_BLOCK_MAX)
    return state.log[first:]


def step(state: MachineState, sample: tuple) -> StepRecord:
    """One Evaluate-Detect-Construct cycle (see ``_fold``); appends to the log."""
    return _fold(state, [sample])[0]


@dataclass
class Trace:
    records: list[StepRecord]
    size_curve: list[int]
    errors: int


def run_stream(state: MachineState, stream) -> Trace:
    """Apply the machine to a sample sequence, as one ``step`` per sample.

    The size curve lists the library size after each step; an empty
    stream yields the current size as a single entry.
    """
    size = state.library_size
    records = _fold(state, stream)
    curve = list(accumulate((r.kind == "construct" for r in records), initial=size))
    errors = sum(not r.correct for r in records if r.kind == "evaluate")
    return Trace(records, curve[1:] or curve, errors)


def replay_log(
    space: MetricSpace,
    tau: float,
    d0: float,
    r_construct: float,
    log,
    labels=None,
) -> MachineState:
    """Rebuild a machine by re-running the logged inputs in order.

    Because entries are append-only and construction is deterministic in
    (space, point, label), any log prefix reproduces the corresponding
    library prefix bit-exactly.
    """
    state = machine_new(space, tau, d0, r_construct, labels)
    _fold(state, map(attrgetter("point", "label"), log))
    return state
