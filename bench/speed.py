"""Correction of measured times for the machine's speed at the moment.

The benchmark shares its cores with other tenants, and the speed at which the
interpreter runs moves by half or more within seconds.  While a run measures,
``SpeedSampler`` interrupts the program 40 times a second (SIGALRM, handled in
the main thread, so no extra thread) and times a fixed loop of interpreter
work.  ``corrected(t0, t1)`` then reports an interval in reference seconds:
its length, minus the sampler's own time inside it, times the mean of
``REF_S / loop time`` over the samples within ``WINDOW_S`` of it.  A loop
that took ``REF_S`` throughout leaves the time unchanged.

The loop walks the bits of an integer, like the library's bitset code.  On a
shared 2-core x86-64 VM it tracked the workloads best of the loops tried (plain
arithmetic with a dict, building sets of tuples): it cut the spread of pass
times within one run from 11-17% to 3-4%, and a narrow window tracked better
than a wide one.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.025
WINDOW_S = 0.05
#: Reference time of one calibration loop: its median on a 2-core x86-64
#: VM under CPython 3.11.
REF_S = 0.4e-3


def calibration_loop() -> int:
    acc = 0
    full = (1 << 40) - 1
    m = full
    for _ in range(2500):
        b = m & -m
        m ^= b
        acc += b.bit_length()
        if not m:
            m = full
    return acc


class SpeedSampler:
    """Context manager that samples machine speed while it is entered."""

    def __init__(self):
        self.starts: list[float] = []
        self.costs: list[float] = []
        self._prev_handler = None

    def _sample(self, signum, frame):
        t = time.perf_counter()
        calibration_loop()
        self.starts.append(t)
        self.costs.append(time.perf_counter() - t)

    def __enter__(self):
        self._prev_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._prev_handler)
        if not self.starts:  # a run shorter than one interval
            self._sample(signal.SIGALRM, None)
        return False

    def corrected(self, t0: float, t1: float) -> float:
        """Length of [t0, t1] in reference seconds (see the module docstring)."""
        starts, costs = self.starts, self.costs
        inside = sum(costs[bisect.bisect_left(starts, t0):bisect.bisect_left(starts, t1)])
        lo = bisect.bisect_left(starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(starts, t1 + WINDOW_S)
        if lo == hi:  # no sample near the interval: use the nearest one
            lo = min(lo, len(starts) - 1)
            hi = lo + 1
        factor = sum(REF_S / c for c in costs[lo:hi]) / (hi - lo)
        return (t1 - t0 - inside) * factor
