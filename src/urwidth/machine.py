"""The streaming Evaluate-Detect-Construct machine.

State is a growing library of local classifiers: each entry is a frozen
geodesic ball around the point whose arrival raised the alarm, carrying
the constant label observed there.  Detection computes the
prediction residue min_i max(0, d(x, center_i) - radius_i); at residue
above the tolerance the machine constructs a new entry, otherwise it
evaluates with the best-matching entry.  Every step appends one
immutable ``StepRecord`` (a named tuple) to the log.  Entries and
records are append-only: none is modified after insertion, and replaying
the event log reproduces the library bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, islice
from typing import NamedTuple

import numpy as np

from .spaces import BLOCK, MetricSpace

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
    requirement 0 < 2*r_construct <= D0.
    """
    if not 0 <= tau < math.inf:  # NaN fails too
        raise ValueError(f"tolerance must be nonnegative and finite, got tau={tau}")
    if not math.isfinite(d0):
        raise ValueError(f"D0 must be finite, got D0={d0}")
    if not 0 < 2 * r_construct <= d0:
        raise ValueError(
            f"need 0 < 2*r_construct <= D0, got r_construct={r_construct}, D0={d0}"
        )
    return MachineState(space, tau, d0, r_construct, tuple(labels) if labels else None)


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

    Samples are taken BLOCK at a time: one residue matrix against the
    library as it stands at the block's start, then one column per entry
    constructed inside the block.  A running minimum updated only on a
    strict ``<`` keeps argmin's first occurrence, so each residue and
    entry equals a per-sample scan of the library bit for bit.  A sample
    that is not a (point, label) pair, or whose label lies outside
    ``state.labels``, raises after every sample before it has applied.
    """
    limit = state.tau + _EVAL_TOL
    first = len(state.log)
    samples = iter(samples)
    while block := list(islice(samples, BLOCK)):
        xs, ys, error = [], [], None
        for sample in block:
            try:
                x, y = sample
                if state.labels is not None and y not in state.labels:
                    raise ValueError(f"label {y!r} outside the concept space {state.labels}")
            except (TypeError, ValueError) as exc:  # raised once the samples before it apply
                error = exc
                break
            xs.append(x)
            ys.append(y)
        n = len(xs)
        if state.entries and n:
            res = _residues(state, xs)
            arg = res.argmin(axis=1)
            best = res[np.arange(n), arg]
        else:  # every residue is +inf: the first sample constructs
            best, arg = np.full(n, math.inf), np.full(n, -1)
        t = 0
        while t < n:
            hits = np.flatnonzero(best[t:] > limit)
            c = t + int(hits[0]) if hits.size else n
            for j, residue, i in zip(range(t, c), best[t:c].tolist(), arg[t:c].tolist()):
                predicted = state.entries[i].label
                state.log.append(StepRecord(len(state.log), "evaluate", xs[j], ys[j],
                                            residue, i, predicted, predicted == ys[j]))
            if c == n:
                break
            index = len(state.log)
            state.entries.append(LibraryEntry(xs[c], state.r_construct, ys[c], index))
            state.log.append(StepRecord(index, "construct", xs[c], ys[c], best[c].item(),
                                        len(state.entries) - 1))
            t = c + 1
            if t < n:
                col = np.fmax(0.0, state.space.dists(xs[t:], [xs[c]])[:, 0] - state.r_construct)
                closer = np.flatnonzero(col < best[t:]) + t
                best[closer] = col[closer - t]
                arg[closer] = len(state.entries) - 1
        if error is not None:
            raise error
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
    _fold(state, ((rec.point, rec.label) for rec in log))
    return state
