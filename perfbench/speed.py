"""Host-speed normalisation.

The reference host is shared and its speed drifts by up to 1.8x over
minutes (see README.md), far more than the changes the benchmark has to
resolve.  A fixed loop, timed between slices of measured work, tracks that
drift: over two minutes in which the time of a cold grant (DP + LP) moved
between 66 and 93 ms and that of 40 cached-topology requests between 77
and 97 ms, the ratio of each to the loop time stayed within 4%.

:class:`Meter` cuts the measured work into segments of about ``INTERVAL``
seconds at points the caller chooses (between requests, never inside one),
times the loop at each cut, and gives each segment the factor
``REFERENCE_MS / loop time``, the loop time being the mean of the segment's
two cuts.  A time measured inside a segment, multiplied by its factor, is
the time the work would have taken with the loop at ``REFERENCE_MS``.  The
loop runs between segments, so its own time is never counted as work.
"""

from __future__ import annotations

import bisect
from time import perf_counter

import numpy as np

#: time of :func:`loop_ms` on the reference host (2-core x86 VM, Python
#: 3.11) at its usual speed; it only scales the normalised numbers
REFERENCE_MS = 4.0
INTERVAL = 0.15
_MATRIX = np.arange(100.0).reshape(10, 10) / 100.0


def loop_ms(repeats: int = 2) -> float:
    """Best of ``repeats`` timings of a fixed loop, in ms.

    The loop mixes what the measured code spends its time on: small numpy
    allocations and products, dictionary updates, list building, and plain
    integer arithmetic.  Timed apart, the numpy-and-dictionary half tracked
    the coefficient DP better (block medians of the ratio drifted 4% rather
    than 10%) and the integer half tracked cached-topology requests as well
    or better, depending on what else loaded the host; their sum did both.
    """
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        table = {}
        for i in range(800):
            a = np.zeros(10)
            a[i % 10] = 1.0
            table[i & 63] = a @ _MATRIX
            [float(x) for x in table[i & 63][:4]]
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        best = min(best, perf_counter() - start)
    return best * 1e3


class Meter:
    """Segments of measured work, each with its speed factor."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.factors: list[float] = []
        self.loops: list[float] = [loop_ms()]
        self._start = perf_counter()

    def cut(self) -> None:
        """Close the open segment here and open the next one."""
        end = perf_counter()
        self.loops.append(loop_ms())
        self.starts.append(self._start)
        self.ends.append(end)
        self.factors.append(REFERENCE_MS / ((self.loops[-2] + self.loops[-1]) / 2.0))
        self._start = perf_counter()

    def maybe_cut(self) -> None:
        if perf_counter() - self._start >= INTERVAL:
            self.cut()

    def factor_at(self, t: float) -> float:
        """Factor of the closed segment containing time ``t``."""
        k = bisect.bisect_right(self.starts, t) - 1
        if k < 0 or t > self.ends[k]:
            raise ValueError("time outside every closed segment")
        return self.factors[k]

    def since(self, first: int, scaled: bool) -> float:
        """Length of closed segments ``first`` onwards, normalised if ``scaled``."""
        return sum(
            (e - s) * (f if scaled else 1.0)
            for s, e, f in zip(self.starts[first:], self.ends[first:], self.factors[first:])
        )
