"""Result types for the proxy simulation.

Everything the paper's figures plot comes out of one
:class:`SimulationResult`: per-10-minute-slot request counts and mean
waiting times (per origin proxy and aggregated), worst-case (peak-slot)
waits, and redirection statistics.  :class:`SlotSeries` accumulates
values into fixed-width time slots; :class:`SummaryStats` keeps a
streaming count and mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..workload.diurnal import DAY_SECONDS

__all__ = ["SimulationResult", "SlotSeries", "SummaryStats"]

#: Statistics slot width: the paper's figures plot 10-minute slots.
SLOT_SECONDS = 600.0

#: Window (seconds) over which the scheduler projects donor availability.
LOOKAHEAD_SECONDS = 600.0


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


@dataclass
class SimulationResult:
    """Statistics from one simulation run (measured days only).

    Waiting times are keyed by the request's *arrival* time-of-day and its
    *origin* proxy (so a redirected request counts at the ISP whose client
    issued it, as in the paper's per-ISP curves).
    """

    n_proxies: int
    waits_by_proxy: list[SlotSeries] = field(default_factory=list)
    waits_all: SlotSeries = None  # type: ignore[assignment]
    redirects: SlotSeries = None  # type: ignore[assignment]
    total_requests: int = 0
    scheduler_consults: int = 0
    local_wait_stats: SummaryStats = field(default_factory=SummaryStats)
    redirected_wait_stats: SummaryStats = field(default_factory=SummaryStats)
    """Wait aggregates split by whether the request was ever redirected —
    the paper notes redirected requests pay a penalty that still beats
    their counterfactual local wait."""

    def __post_init__(self) -> None:
        if not self.waits_by_proxy:
            self.waits_by_proxy = [
                SlotSeries(DAY_SECONDS, SLOT_SECONDS) for _ in range(self.n_proxies)
            ]
        if self.waits_all is None:
            self.waits_all = SlotSeries(DAY_SECONDS, SLOT_SECONDS)
        if self.redirects is None:
            self.redirects = SlotSeries(DAY_SECONDS, SLOT_SECONDS)

    # -- recording (used by the simulator) ---------------------------------

    def record_wait(
        self, origin: int, arrival: float, wait: float, redirected: bool = False
    ) -> None:
        self.waits_by_proxy[origin].record(arrival, wait)
        self.waits_all.record(arrival, wait)
        self.total_requests += 1
        if redirected:
            self.redirects.record(arrival, 1.0)
            self.redirected_wait_stats.record(wait)
        else:
            self.local_wait_stats.record(wait)

    # -- queries (what the figures plot) --------------------------------------

    @property
    def total_redirected(self) -> int:
        """Measured requests that were redirected, counted once each."""
        return self.redirected_wait_stats.count

    def mean_wait_series(self, proxy: int | None = 0) -> np.ndarray:
        """Per-slot mean waiting time; ``proxy=None`` aggregates all ISPs."""
        series = self.waits_all if proxy is None else self.waits_by_proxy[proxy]
        return series.means()

    def request_count_series(self, proxy: int | None = 0) -> np.ndarray:
        series = self.waits_all if proxy is None else self.waits_by_proxy[proxy]
        return series.counts()

    def slot_times(self) -> np.ndarray:
        return self.waits_all.slot_times()

    def combined_series(self, origins) -> SlotSeries:
        """Merge the wait series of a set of origin proxies.

        Used by the loop experiments (Figures 9-11): with n proxies on an
        n-index ring but skews spanning only n hours of a 24-hour day, a
        proxy whose donor index wraps (``i - skip < 0``) does not actually
        have a donor ``skip`` hours away, so those figures aggregate over
        the proxies whose donors are genuine.
        """
        merged = SlotSeries(self.waits_all.horizon, SLOT_SECONDS)
        for o in origins:
            merged.merge(self.waits_by_proxy[o])
        return merged

    def worst_case_wait_over(self, origins) -> float:
        """Peak per-slot mean wait over a set of origin proxies."""
        return self.combined_series(origins).peak_mean()

    def worst_case_wait(self, proxy: int | None = 0) -> float:
        """Peak per-slot mean wait — the figures' 'worst-case waiting time'."""
        series = self.waits_all if proxy is None else self.waits_by_proxy[proxy]
        return series.peak_mean()

    def overall_mean_wait(self, proxy: int | None = None) -> float:
        series = self.waits_all if proxy is None else self.waits_by_proxy[proxy]
        return series.overall_mean()

    def redirect_fraction(self) -> float:
        """Fraction of all requests that were redirected (Figure 12 quotes
        < 1.5% overall for the complete graph)."""
        return self.total_redirected / self.total_requests if self.total_requests else 0.0

    def peak_redirect_fraction(self) -> float:
        """Worst per-slot redirected fraction (Figure 12 quotes < 6% at peak)."""
        red = self.redirects.counts().astype(float)
        req = self.waits_all.counts().astype(float)
        mask = req > 0
        if not mask.any():
            return 0.0
        return float(np.max(red[mask] / req[mask]))

    def summary(self) -> dict:
        """Scalar digest used by the experiment tables."""
        return {
            "total_requests": self.total_requests,
            "total_redirected": self.total_redirected,
            "redirect_fraction": round(self.redirect_fraction(), 5),
            "mean_wait": round(self.overall_mean_wait(), 4),
            "worst_case_wait_isp0": round(self.worst_case_wait(0), 4),
            "worst_case_wait_all": round(self.worst_case_wait(None), 4),
            "scheduler_consults": self.scheduler_consults,
            "mean_wait_local": round(self.local_wait_stats.mean, 4),
            "mean_wait_redirected": round(self.redirected_wait_stats.mean, 4),
        }
