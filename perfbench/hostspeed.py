"""Host-speed calibration.

The benchmark runs on shared hosts whose speed changes by up to 2x over
seconds to minutes, because of other tenants.  So the benchmark times a
fixed calibration chunk about every quarter second between ops, and scales
every op run by

    NOMINAL_S / (median chunk time from WINDOW_S before the run to WINDOW_S after it)

so that the run reads as it would on a host where the chunk takes
NOMINAL_S.  The chunk is a pure-Python loop that never touches the library,
so a faster library still reads faster; the raw seconds are printed beside
the corrected ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

EVERY_S = 0.25         # sampling period between ops
WINDOW_S = 1.0         # samples within this distance of an op run correct it


class HostSpeed:
    """Calibration samples over a run; each is the best of three chunks."""

    NOMINAL_S = 0.002   # about the chunk's best time on a 2-CPU VM with Python 3.11
    REPEATS = 3

    def __init__(self):
        self.at: list[float] = []
        self.chunk_s: list[float] = []

    @staticmethod
    def chunk() -> None:
        """Exact rational arithmetic in a Python loop, like the library's hot paths."""
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 1)

    def sample(self) -> None:
        best = float("inf")
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            self.chunk()
            best = min(best, time.perf_counter() - t0)
        self.at.append(time.perf_counter())
        self.chunk_s.append(best)

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def local_chunk_s(self, t: float, seconds: float) -> float:
        """Median chunk time of the samples within WINDOW_S of [t, t + seconds]."""
        lo = bisect.bisect_left(self.at, t - WINDOW_S)
        hi = bisect.bisect_right(self.at, t + seconds + WINDOW_S)
        near = self.chunk_s[lo:hi]
        if not near:
            i = min(bisect.bisect_left(self.at, t), len(self.at) - 1)
            near = [self.chunk_s[i]]
        return statistics.median(near)

    def adjust(self, seconds: float, t: float) -> float:
        """An op run of ``seconds`` started at ``t``, corrected to the nominal host speed."""
        return seconds * self.NOMINAL_S / self.local_chunk_s(t, seconds)

    def median_chunk_s(self) -> float:
        return statistics.median(self.chunk_s)
