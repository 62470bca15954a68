"""Single-server FIFO work queue — the proxy front-end.

Requests queue at a proxy's front-end and are served one at a time; the
*waiting time* reported by the paper's figures is the time from arrival at
the front-end until service starts (plus any redirection overhead added by
the caller).  The queue tracks the total outstanding work so the simulator
can compare it with the scheduler-consultation threshold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["QueuedItem", "WorkQueue"]


@dataclass
class QueuedItem:
    """One unit of queued work.

    ``arrival`` is when the request first entered *any* queue (so waiting
    time spans redirections); ``service`` is the work it requires in
    seconds; ``ready`` is the earliest time service may start (defaults to
    ``arrival``; redirection sets it to the transfer-completion time);
    ``payload`` is caller data (the proxy simulation stores the index of
    the proxy whose stream the request came from).
    """

    arrival: float
    service: float
    ready: float | None = None
    payload: object = None
    hops: int = 0
    """How many times this item has been redirected between queues."""

    def __post_init__(self) -> None:
        if self.ready is None:
            self.ready = self.arrival


class WorkQueue:
    """FIFO queue in front of a unit-rate server.

    The server is simulated lazily: :meth:`advance` consumes queued work up
    to the current simulation time, recording each served item's waiting
    time with the supplied callback.  ``rate`` scales processing power
    (``rate=1.25`` models the "25% more resources" configurations of
    Figure 7).
    """

    def __init__(self, rate: float = 1.0):
        if rate <= 0:
            raise ValueError(f"service rate must be positive, got {rate}")
        self.rate = float(rate)
        self._items: deque[QueuedItem] = deque()
        self._backlog = 0.0  # seconds of work queued (unscaled)
        self._server_free_at = 0.0  # when the in-service item completes
        self.served = 0

    @property
    def backlog(self) -> float:
        """Seconds of work currently queued (excluding the in-service item)."""
        return self._backlog

    def committed(self, now: float) -> float:
        """Seconds of work owed at ``now``: the queued backlog plus the
        in-service item's remainder (its time left times ``rate``)."""
        return self._backlog + max(self._server_free_at - now, 0.0) * self.rate

    def push(self, item: QueuedItem) -> None:
        self._items.append(item)
        self._backlog += item.service

    def pop_tail(self, max_work: float) -> list[QueuedItem]:
        """Remove up to ``max_work`` seconds of work from the *tail*.

        Redirection takes the most recently queued requests (they would
        wait longest locally); earlier arrivals keep their position.  The
        paper's scheme redirects a queued request once, so items already
        redirected (``hops > 0``) are skipped (left in place, order
        preserved).  Returns the removed items, oldest first.
        """
        removed: list[QueuedItem] = []
        kept: list[QueuedItem] = []
        work = 0.0
        while self._items:
            item = self._items[-1]
            eligible = item.hops == 0
            if eligible and work + item.service > max_work + 1e-12:
                break
            self._items.pop()
            if eligible:
                work += item.service
                self._backlog -= item.service
                removed.append(item)
            else:
                kept.append(item)
        # Restore skipped items in their original order.
        while kept:
            self._items.append(kept.pop())
        removed.reverse()
        return removed

    def advance(self, now: float, on_served) -> None:
        """Serve queued items whose service can start by ``now``.

        ``on_served(item, start_time)`` is called for each item as it
        reaches the server; the waiting time is ``start_time -
        item.arrival``.  Items whose start would fall after ``now`` remain
        queued.
        """
        while self._items:
            start = max(self._server_free_at, self._items[0].ready)
            if start > now + 1e-12:
                break
            item = self._items.popleft()
            self._backlog -= item.service
            self._server_free_at = start + item.service / self.rate
            self.served += 1
            on_served(item, start)

    def drain(self, on_served) -> None:
        """Serve everything left (end-of-run flush)."""
        self.advance(float("inf"), on_served)

    def __repr__(self) -> str:
        return (
            f"WorkQueue(rate={self.rate:g}, queued={len(self._items)}, "
            f"backlog={self._backlog:.1f}s)"
        )
