"""Time-sliced statistics accumulators.

The paper reports per-10-minute-slot series over a 24-hour period
(requests per slot, average waiting time per slot) plus scalar summaries
(worst-case waiting time, fraction of requests redirected).
:class:`SlotSeries` accumulates values into fixed-width time slots;
:class:`SummaryStats` keeps streaming scalar aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SlotSeries", "SummaryStats"]


class SlotSeries:
    """Accumulates (time, value) observations into fixed-width slots.

    ::

        waits = SlotSeries(horizon=86_400.0, width=600.0)  # 144 slots
        waits.record(t, wait)
        waits.means()      # average waiting time per 10-minute slot
        waits.counts()     # requests per slot
    """

    def __init__(self, horizon: float = 86_400.0, width: float = 600.0):
        if width <= 0 or horizon <= 0:
            raise ValueError("horizon and width must be positive")
        self.horizon = float(horizon)
        self.width = float(width)
        self.slots = int(math.ceil(horizon / width))
        self._sum = np.zeros(self.slots)
        self._count = np.zeros(self.slots, dtype=np.int64)

    def slot_of(self, t: float) -> int:
        """Slot index for time ``t``; times wrap modulo the horizon."""
        return int((t % self.horizon) // self.width) % self.slots

    def record(self, t: float, value: float) -> None:
        s = self.slot_of(t)
        self._sum[s] += value
        self._count[s] += 1

    def counts(self) -> np.ndarray:
        """Observations per slot."""
        return self._count.copy()

    def means(self) -> np.ndarray:
        """Per-slot mean (0 for empty slots)."""
        out = np.zeros(self.slots)
        mask = self._count > 0
        out[mask] = self._sum[mask] / self._count[mask]
        return out

    def slot_times(self) -> np.ndarray:
        """Slot start times (seconds), for plotting."""
        return np.arange(self.slots) * self.width

    def peak_mean(self) -> float:
        """The worst per-slot mean — the paper's 'worst-case waiting time'."""
        means = self.means()
        return float(means.max()) if means.size else 0.0

    def overall_mean(self) -> float:
        total = int(self._count.sum())
        return float(self._sum.sum() / total) if total else 0.0

    def merge(self, other: "SlotSeries") -> None:
        """Accumulate another series (same geometry) into this one."""
        if (self.slots, self.width) != (other.slots, other.width):
            raise ValueError("cannot merge SlotSeries with different geometry")
        self._sum += other._sum
        self._count += other._count


@dataclass
class SummaryStats:
    """Streaming count and mean of a value stream."""

    count: int = 0
    total: float = 0.0

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0
