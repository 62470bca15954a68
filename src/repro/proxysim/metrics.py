"""Result table for the proxy simulation.

Every figure of the case study plots the mean waiting time per 10-minute
slot at an ISP, plus the redirected fraction for Figure 12.  So
:class:`SimulationResult` keeps one table of sums per (origin proxy,
slot), and every query is a view of it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from ..workload.diurnal import DAY_SECONDS

__all__ = ["SimulationResult"]

#: Statistics slot width: the paper's figures plot 10-minute slots.
SLOT_SECONDS = 600.0
SLOTS = int(math.ceil(DAY_SECONDS / SLOT_SECONDS))

#: The four sums of a table cell, by column.
WAIT, COUNT, REDIRECTED, REDIRECTED_WAIT = range(4)


def _slot_means(slots: np.ndarray) -> np.ndarray:
    """Per-slot mean wait of ``(slot, column)`` sums (0 for empty slots)."""
    out = np.zeros(len(slots))
    mask = slots[:, COUNT] > 0
    out[mask] = slots[mask, WAIT] / slots[mask, COUNT]
    return out


@dataclass
class SimulationResult:
    """Statistics from one simulation run (measured days only).

    Waits are keyed by the request's *arrival* time of day (wrapped onto
    one day) and its *origin* proxy, so a redirected request counts at the
    ISP whose client issued it, as in the paper's per-ISP curves.  In the
    queries ``proxy=None`` aggregates all ISPs.
    """

    n_proxies: int
    scheduler_consults: int = 0
    cells: array = field(init=False, repr=False)
    """The table, flat: ``cells[(origin * SLOTS + slot) * 4 + column]``."""

    def __post_init__(self) -> None:
        self.cells = array("d", [0.0]) * (self.n_proxies * SLOTS * 4)

    def record_wait(
        self, origin: int, arrival: float, wait: float, redirected: bool = False
    ) -> None:
        i = (origin * SLOTS + int((arrival % DAY_SECONDS) // SLOT_SECONDS) % SLOTS) * 4
        cells = self.cells
        cells[i + WAIT] += wait
        cells[i + COUNT] += 1.0
        if redirected:
            cells[i + REDIRECTED] += 1.0
            cells[i + REDIRECTED_WAIT] += wait

    # -- views (what the figures plot) ----------------------------------------

    def table(self) -> np.ndarray:
        """The sums as a fresh ``(origin, slot, column)`` array."""
        return np.array(self.cells, dtype=float).reshape(self.n_proxies, SLOTS, 4)

    def _slots(self, proxy: int | None) -> np.ndarray:
        table = self.table()
        return table.sum(axis=0) if proxy is None else table[proxy]

    @property
    def total_requests(self) -> int:
        return int(self.table()[:, :, COUNT].sum())

    @property
    def total_redirected(self) -> int:
        """Measured requests that were redirected, counted once each."""
        return int(self.table()[:, :, REDIRECTED].sum())

    def mean_wait_series(self, proxy: int | None = 0) -> np.ndarray:
        return _slot_means(self._slots(proxy))

    def request_count_series(self, proxy: int | None = 0) -> np.ndarray:
        return self._slots(proxy)[:, COUNT].astype(np.int64)

    def slot_times(self) -> np.ndarray:
        """Slot start times (seconds), for plotting."""
        return np.arange(SLOTS) * SLOT_SECONDS

    def worst_case_wait_over(self, origins) -> float:
        """Peak per-slot mean wait of the requests of a set of origins: the
        loop figures (9-11) leave out the proxies whose donor index wraps
        round the ring, as they have no donor ``skip`` hours away."""
        return float(_slot_means(self.table()[list(origins)].sum(axis=0)).max())

    def worst_case_wait(self, proxy: int | None = 0) -> float:
        """Peak per-slot mean wait — the figures' 'worst-case waiting time'."""
        return float(self.mean_wait_series(proxy).max())

    def overall_mean_wait(self, proxy: int | None = None) -> float:
        slots = self._slots(proxy)
        total = int(slots[:, COUNT].sum())
        return float(slots[:, WAIT].sum() / total) if total else 0.0

    def split_mean_wait(self) -> tuple[float, float]:
        """(never-redirected, redirected) mean waits: the paper's redirected
        requests pay a penalty that still beats their local wait."""
        wait, count, red, red_wait = (float(x) for x in self.table().sum(axis=(0, 1)))
        local = count - red
        return (wait - red_wait) / local if local else 0.0, red_wait / red if red else 0.0

    def redirect_fraction(self) -> float:
        """Fraction of requests redirected (Figure 12: < 1.5% on the complete graph)."""
        total = self.total_requests
        return self.total_redirected / total if total else 0.0

    def peak_redirect_fraction(self) -> float:
        """Worst per-slot redirected fraction (Figure 12 quotes < 6% at peak)."""
        slots = self._slots(None)
        mask = slots[:, COUNT] > 0
        return float(np.max(slots[mask, REDIRECTED] / slots[mask, COUNT])) if mask.any() else 0.0

    def summary(self) -> dict:
        """Scalar digest used by the experiment tables."""
        local, redirected = self.split_mean_wait()
        return {
            "total_requests": self.total_requests,
            "total_redirected": self.total_redirected,
            "redirect_fraction": round(self.redirect_fraction(), 5),
            "mean_wait": round(self.overall_mean_wait(), 4),
            "worst_case_wait_isp0": round(self.worst_case_wait(0), 4),
            "worst_case_wait_all": round(self.worst_case_wait(None), 4),
            "scheduler_consults": self.scheduler_consults,
            "mean_wait_local": round(local, 4),
            "mean_wait_redirected": round(redirected, 4),
        }
