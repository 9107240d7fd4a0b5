"""A work clock: time measured against a fixed reference computation.

The machines this benchmark runs on are shared, and their speed drifts by
a third or more in phases lasting from a fraction of a second to minutes.
While the clock runs, a timer signal interrupts the process every
INTERVAL_S seconds and times a short slice of reference work.  The slices
sample how fast the machine is at that moment, inside long operations as
well as between short ones.  An interval is then converted to nominal
seconds: its wall time, less the slices it contains, times the machine's
speed then, relative to the speed at which a slice takes NOMINAL_SLICE_S.
The slice uses the int, Fraction, tuple and dict operations that the
package's exact arithmetic is made of, so it slows down with it.  It is
fixed code outside the package: a faster package still reads as faster.
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
# a slice's duration at the fast end of the drift, on a 2-core x86-64 VM
# running CPython 3.11; figures are reported at this speed
NOMINAL_SLICE_S = 0.00035


def _slice():
    acc, table = Fraction(0), {}
    for _ in range(3):
        for i in range(1, 40):
            key = (i % 7, i % 5)
            table[key] = table.get(key, 0) + i * 7919 % 104729
            acc += Fraction(i % 13, i % 11 + 1)
    return acc, table


class WorkClock:
    """Samples machine speed on SIGALRM while in a with block."""

    def __init__(self):
        self.starts = []            # slice start times, ascending
        self.ends = []
        self.sliced = 0.0           # total seconds spent in slices so far
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        _slice()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.sliced += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        return False

    def _slices(self, t0: float, t1: float):
        """Durations of the slices inside [t0, t1], or of the ones just
        before and after it when it holds none; and whether inside."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        inside = [e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])]
        if inside:
            return inside, True
        return [self.ends[k] - self.starts[k] for k in (lo - 1, lo)
                if 0 <= k < len(self.starts)], False

    def speed(self, t0: float, t1: float) -> float:
        """Nominal seconds per second of work done in [t0, t1].

        Slices come at even times, so the mean of their speeds (the harmonic
        mean of their durations) is the interval's mean speed.
        """
        durations, _ = self._slices(t0, t1)
        return sum(NOMINAL_SLICE_S / d for d in durations) / len(durations)

    def nominal(self, t0: float, t1: float) -> float:
        """Nominal seconds of the interval [t0, t1] of this process: its
        wall time less the slices run inside it, times its speed."""
        durations, inside = self._slices(t0, t1)
        work = t1 - t0 - (sum(durations) if inside else 0.0)
        return work * self.speed(t0, t1)
