"""The CPU's speed while the benchmark runs, for scaling times to one speed.

On a shared virtual machine the CPU's speed can drift by a factor of two
within seconds, in CPU time as much as in wall time, so plain seconds
measured at different moments are not comparable.  While a ``Speedometer``
is active, a ``SIGALRM`` handler times a fixed piece of pure-Python work
like pbound's own (rational arithmetic and dict updates) every
``SAMPLE_EVERY_S``, also in the middle of a query.  The time of an interval
at the reference speed is its time times ``REFERENCE_S`` over the mean time
of the samples taken in it or within one period of it.  The reference work
does not depend on pbound, so a faster pbound shows in full.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.05
REFERENCE_S = 0.001  # the reference work's seconds at the reference speed


class Speedometer:
    def __init__(self):
        self.starts, self.ends = [], []
        self._sampling = False

    def sample(self, *_):
        """Time the reference work once.  The garbage collector is off
        meanwhile: a collection's cost depends on what pbound left on the
        heap, not on the CPU's speed."""
        if self._sampling:
            return
        self._sampling, collecting = True, gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        table = {}
        for i in range(1, 300):
            k = i % 64
            table[k] = table.get(k, 0) + Fraction(i % 97, i % 89 + 1)
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self._sampling = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _window(self, start, end):
        """The samples taken within one period of [start, end], or else the
        last one before it."""
        lo = bisect.bisect_left(self.ends, start - SAMPLE_EVERY_S)
        hi = bisect.bisect_right(self.starts, end + SAMPLE_EVERY_S)
        lo = min(lo, hi - 1)
        return list(zip(self.starts[lo:hi], self.ends[lo:hi]))

    def factor(self, start, end) -> float:
        """Reference seconds per second in [start, end]."""
        return REFERENCE_S / statistics.fmean(e - s for s, e in self._window(start, end))

    def scaled(self, start, end) -> float:
        """The seconds this process spent in [start, end] on other work than
        sampling, at the reference speed."""
        window = self._window(start, end)
        sampling = sum(max(0.0, min(e, end) - max(s, start)) for s, e in window)
        return (end - start - sampling) * self.factor(start, end)
