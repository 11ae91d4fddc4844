"""Times scaled to a reference host speed.

The benchmark's host shares its cores: the same fixed loop runs at 0.5 to
1.0 of its best speed, in spells from a second to minutes long, with CPU
time equal to wall time (the core itself is slower, so no clock of this
process can tell the program's cost from the host's).  A statistic taken
inside one run cannot remove a spell that covers the whole run.

So every timed step is bracketed by a short calibration loop, :func:`unit`,
whose work never changes (it is the benchmark's own code, not the
program's).  A step's time is scaled by ``REF_UNIT_S`` over the loop's mean
time around it: the result reads as the step's time on a host where the
loop takes ``REF_UNIT_S``, about this loop's best on a 2 GHz Xeon vCPU.
A change to the program moves the scaled time exactly as it moves the raw
one; a change of host speed moves both the step and the loop and cancels.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

REF_UNIT_S = 0.004  # seconds the calibration loop takes at reference speed
UNIT_REPS = 2  # loops per reading; the fastest is kept (an interrupt drops out)

_VALUES = np.random.default_rng(12345).random(40_000)


def unit() -> int:
    """A fixed mix of interpreter work and small NumPy calls, ~4 ms."""
    table: dict[int, int] = {}
    total = 0
    for i in range(16_000):
        key = i % 997
        table[key] = table.get(key, 0) + i
        total += i * i
    values = _VALUES.copy()
    values.sort()
    total += int(np.cumsum(values)[-1])
    return total + len(table)


def unit_s() -> float:
    """Seconds one calibration loop takes now."""
    best = float("inf")
    for _ in range(UNIT_REPS):
        started = time.perf_counter()
        unit()
        best = min(best, time.perf_counter() - started)
    return best


def scale(raw_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` at reference speed, given readings taken around it."""
    return raw_s * REF_UNIT_S * 2.0 / (before_s + after_s)


class Meter:
    """Sums a sequence of timed steps, raw and at reference speed.

    Consecutive steps share a reading: the one taken after a step is the
    one before the next, so one meter serves one unbroken sequence.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.ref_s = 0.0
        self._reading: float | None = None

    @contextmanager
    def timed(self):
        before = self._reading if self._reading is not None else unit_s()
        started = time.perf_counter()
        try:
            yield
        finally:
            raw = time.perf_counter() - started
            self._reading = unit_s()
            self.raw_s += raw
            self.ref_s += scale(raw, before, self._reading)

