"""Host-speed reference: rescale wall time to a nominal reference host.

On a shared host the speed of one core drifts by 10-20 % over tens of
seconds, with CPU time drifting alongside wall time, so longer runs do not
average it out.  The benchmark therefore times a fixed reference kernel
(interpreter-bound float and dict work plus bitmask operations on large
integers, about half the time each; it calls no urwidth code) at the
start, after every ``REF_EVERY_S`` seconds of operations, and at the end
of a run.  Every wall time of the run is
multiplied by ``REF_NOMINAL_S`` over the mean burst duration.  The result
reads as seconds on a host where one burst takes ``REF_NOMINAL_S``: a change
to urwidth moves it, a change in host load mostly does not.  The mean over
the whole run is used because single bursts are noisy; per-segment factors
made the latency percentiles less steady, not more.  Of the kernels tried
(float/dict work, 6,000- and 16,000-bit integer masks, small numpy calls),
this pair tracked both the interpreter-bound workloads and the bitmask-bound
shattering search best; numpy calls tracked worst.
"""

from __future__ import annotations

import math
import statistics
import time

REF_NOMINAL_S = 0.010
REF_EVERY_S = 0.4

_PTS = [((i * 7919) % 1009) / 1009.0 for i in range(240)]
_BITS = 16000
_COLS = [(1 << _BITS) // (7 + i) for i in range(16)]


def _floats() -> float:
    """Interpreter-bound work: generator minima, float math, dict inserts, a sort."""
    acc = 0.0
    nearest = {}
    for i, p in enumerate(_PTS):
        best = min((abs(p - q) for q in _PTS[i + 1 : i + 50]), default=1.0)
        nearest[(i, p)] = best
        acc += math.sqrt(best + 1e-9)
    return acc + len(sorted(nearest.values()))


def _bigints() -> int:
    """Bitmask work on 16,000-bit integers: AND, AND-NOT, popcount."""
    full = (1 << _BITS) - 1
    mask, n = full, 0
    for _ in range(40):
        for col in _COLS:
            kept = mask & col
            n += (mask & ~col & full).bit_count() + kept.bit_count()
            mask = kept or mask
    return n


def reference_burst() -> float:
    """Run the reference kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(5):
        _floats()
    for _ in range(2):
        _bigints()
    return time.perf_counter() - t0


class Meter:
    """Wall times of back-to-back calls, with reference bursts between them.

    ``record`` takes one call's wall time and runs a burst once ``every_s``
    seconds have passed since the last one; ``finish`` runs the closing
    burst.  ``adjusted`` rescales every recorded time by ``factor``.
    """

    def __init__(self, every_s: float = REF_EVERY_S) -> None:
        self.every_s = every_s
        self.raw: list[float] = []
        self.bursts: list[float] = [reference_burst()]
        self._since = time.perf_counter()

    def record(self, seconds: float) -> None:
        self.raw.append(seconds)
        if time.perf_counter() - self._since >= self.every_s:
            self.finish()

    def finish(self) -> None:
        self.bursts.append(reference_burst())
        self._since = time.perf_counter()

    @property
    def factor(self) -> float:
        return REF_NOMINAL_S / statistics.fmean(self.bursts)

    @property
    def adjusted(self) -> list[float]:
        f = self.factor
        return [x * f for x in self.raw]
