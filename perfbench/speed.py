"""Machine-speed reference that latencies are scaled by.

On a shared machine the CPU can switch between a fast and a slow state
(about 1.6x apart on the 2-CPU x86_64 Linux host the baseline was measured
on) every second or so, in CPU time as much as in wall time, so run medians
of the same work differ by more than any useful regression bound.  A fixed
numpy kernel that never calls the pricer is timed before a timed operation
when the last mark is at least ``MARK_GAP_S`` seconds old, and once after
the last; each latency is multiplied by ``NOMINAL_MS`` over the median kernel
time of the marks that bracket it.  The kernel works on mesh-sized arrays,
which may leave the next operation colder caches; the gap keeps that to a
small share of the quotes.  Reported
times are therefore milliseconds at the speed where the kernel takes
``NOMINAL_MS``; the raw medians are printed too.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

NOMINAL_MS = 5.0
MARK_GAP_S = 0.25
_X = np.linspace(1.0, 2.0, 10001)


def kernel() -> float:
    """Elementwise maths and cumulative sums on mesh-sized arrays, as the pricer does."""
    acc = 0.0
    for k in range(1, 31):
        acc += float(np.cumsum(np.sin(_X * k) * _X)[-1]) / k
    return acc


class SpeedReference:
    def __init__(self):
        self.times: list = []  # mark midpoints, in time order
        self.kernel_ms: list = []

    def measure(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.kernel_ms.append(1e3 * (t1 - t0))

    def scale_now(self, marks: int) -> float:
        """Take marks now; NOMINAL_MS over their median kernel time."""
        for _ in range(marks):
            self.measure()
        return NOMINAL_MS / float(np.median(self.kernel_ms[-marks:]))

    def measure_if_due(self):
        """Measure unless the last mark is less than MARK_GAP_S old."""
        if not self.times or time.perf_counter() - self.times[-1] >= MARK_GAP_S:
            self.measure()

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_MS over the median kernel time of the marks taken within
        [t0, t1] and the nearest one on either side."""
        lo = max(bisect.bisect_left(self.times, t0) - 1, 0)
        hi = bisect.bisect_right(self.times, t1) + 1
        return NOMINAL_MS / float(np.median(self.kernel_ms[lo:hi]))

    def scaled(self, samples) -> list:
        """Scale (start, end, value) samples to the nominal speed."""
        return [value * self.scale(t0, t1) for t0, t1, value in samples]
