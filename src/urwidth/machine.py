"""The streaming Evaluate-Detect-Construct machine.

State is a frozen, growing library of local classifiers: each entry is a
geodesic ball around the point whose arrival raised the alarm, carrying
the constant label observed there.  Detection computes the
prediction residue min_i max(0, d(x, center_i) - radius_i); at residue
above the tolerance the machine constructs a new entry, otherwise it
evaluates with the best-matching entry.  Entries are append-only: no
record is ever modified after insertion, and replaying the event log
reproduces the library bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class LibraryEntry:
    """One frozen local classifier: a constant-label ball."""

    center: object
    radius: float
    label: object
    step_index: int


@dataclass(frozen=True)
class StepRecord:
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


def _nearest(state: MachineState, x) -> tuple[float, int]:
    """(residue, index) of the minimal-residue entry, lowest index on ties;
    (+inf, -1) on an empty library."""
    best = (math.inf, -1)
    for i, e in enumerate(state.entries):
        r = max(0.0, state.space.dist(x, e.center) - e.radius)
        if r < best[0]:
            best = (r, i)
    return best


def alarm(state: MachineState, x) -> float:
    """Prediction residue of ``x``: distance beyond the nearest entry's
    ball, +inf on an empty library."""
    return _nearest(state, x)[0]


def step(state: MachineState, sample: tuple) -> StepRecord:
    """One Evaluate-Detect-Construct cycle; appends to the log.

    Residue within tolerance: evaluate with the minimal-residue entry
    (lowest index on ties); constructed entries are constant, so the
    prediction is that entry's label.  Otherwise: construct a new entry,
    a ball of radius r_construct around the alarming point.
    """
    x, y = sample
    if state.labels is not None and y not in state.labels:
        raise ValueError(f"label {y!r} outside the concept space {state.labels}")
    residue, i = _nearest(state, x)
    index = len(state.log)
    if state.entries and residue <= state.tau + _EVAL_TOL:
        predicted = state.entries[i].label
        rec = StepRecord(
            index, "evaluate", x, y, residue, i, predicted, predicted == y
        )
    else:
        state.entries.append(LibraryEntry(x, state.r_construct, y, index))
        rec = StepRecord(index, "construct", x, y, residue, len(state.entries) - 1)
    state.log.append(rec)
    return rec


@dataclass
class Trace:
    records: list[StepRecord]
    size_curve: list[int]
    errors: int


def run_stream(state: MachineState, stream) -> Trace:
    """Fold ``step`` over a sample sequence.

    The size curve lists the library size after each step; an empty
    stream yields the current size as a single entry.
    """
    records = []
    curve = []
    errors = 0
    for sample in stream:
        rec = step(state, sample)
        records.append(rec)
        curve.append(state.library_size)
        if rec.kind == "evaluate" and not rec.correct:
            errors += 1
    if not curve:
        curve = [state.library_size]
    return Trace(records, curve, errors)


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
    for rec in log:
        step(state, (rec.point, rec.label))
    return state
