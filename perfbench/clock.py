"""Timing of benchmark work, scaled for the speed the machine runs at.

On a shared machine the same pass over the same inputs can take from 1x
to 1.7x its fastest time, in stretches from seconds to minutes, and the
process's CPU time stretches with it, so repeating passes does not average
the drift away.  A Clock therefore runs a fixed probe between pieces of
work, at most every PROBE_INTERVAL seconds, and a pass's times are divided
by its slowdown: the mean probe time over PROBE_REFERENCE_S.  The probe is
standard-library Fraction arithmetic and calls nothing in starsum, so no
change to the program can move it.  Probe time is kept out of every timed
region.
"""

from __future__ import annotations

import functools
import gc
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, List

PROBE_INTERVAL = 0.05
PROBE_REPEATS = 3
# The probe's time on an idle 2 GHz Xeon core under CPython 3.11.
PROBE_REFERENCE_S = 100e-6


def probe_seconds() -> float:
    """Best of PROBE_REPEATS timings of a fixed piece of Fraction arithmetic
    (about 0.1 ms each), with the garbage collector held off so that a
    collection of the program's objects is not charged to the machine."""
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(PROBE_REPEATS):
            started = time.perf_counter()
            total = Fraction(0)
            for k in range(1, 41):
                total += Fraction(1, k * k)
            best = min(best, time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return best


class Clock:
    """Sums the wall time of the blocks it times, less any probe run inside
    them.  With inner off, sampled() adds no probe inside the program's
    calls, only timing() samples at its boundaries; traced passes use that,
    so that no probe time lands in a span."""

    def __init__(self, inner: bool = True) -> None:
        self.inner = inner
        self.total = 0.0
        self.samples: List[float] = []
        self.probe_total = 0.0
        self._last = float("-inf")

    def sample(self) -> None:
        """Run the probe if PROBE_INTERVAL has passed since the last one."""
        now = time.perf_counter()
        if now - self._last >= PROBE_INTERVAL:
            self.samples.append(probe_seconds())
            self._last = time.perf_counter()
            self.probe_total += self._last - now

    def sampled(self, fn: Callable) -> Callable:
        """fn, sampling the probe before each call; for work that runs
        long between the benchmark's own timing points."""
        if not self.inner:
            return fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.sample()
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def timing(self):
        """Times the block; yields a one-element list that holds its
        seconds, less probe time, once the block has ended."""
        self.sample()
        elapsed = [0.0]
        probes = self.probe_total
        started = time.perf_counter()
        try:
            yield elapsed
        finally:
            elapsed[0] = (time.perf_counter() - started
                          - (self.probe_total - probes))
            self.total += elapsed[0]

    def slowdown(self) -> float:
        return statistics.mean(self.samples) / PROBE_REFERENCE_S
