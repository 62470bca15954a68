"""Event heap and simulation clock.

A deliberately small kernel: events are ``(time, sequence, callback)``
triples on a binary heap; the sequence number makes simultaneous events
fire in scheduling order, so runs are deterministic.

Callbacks fire inside :meth:`Engine.run`, so a span a callback opens
nests under whatever span is open around the ``run()`` call (for the
proxy simulation, ``proxysim.run``).
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from ..errors import SimulationError
from ..obs import get_observer

__all__ = ["Engine", "Event"]


@dataclass(order=True)
class Event:
    """A scheduled callback.  Ordering is by (time, seq)."""

    time: float
    seq: int
    fn: Callable[[], None] = field(compare=False)


class Engine:
    """The simulation clock and event loop.

    ::

        eng = Engine()
        eng.schedule_at(5.0, lambda: print("hello at", eng.now))
        eng.run(until=10.0)
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._running = False
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    def schedule_at(self, time: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at absolute time ``time`` (>= now)."""
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule at {time:g}; clock is already at {self._now:g}"
            )
        ev = Event(max(time, self._now), next(self._seq), fn)
        heapq.heappush(self._heap, ev)
        return ev

    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` after ``delay`` seconds (>= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay:g}")
        return self.schedule_at(self._now + delay, fn)

    def run(self, until: float | None = None) -> None:
        """Process events in time order.

        Stops when the heap is empty or the next event is after ``until``
        (the clock then advances to ``until``).  Re-entrant calls are
        rejected.
        """
        if self._running:
            raise SimulationError("Engine.run is not re-entrant")
        self._running = True
        fired = 0
        sim_start = self._now
        wall_start = time.perf_counter()
        try:
            while self._heap:
                if until is not None and self._heap[0].time > until:
                    break
                ev = heapq.heappop(self._heap)
                self._now = ev.time
                ev.fn()
                fired += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
            self.events_processed += fired
            obs = get_observer()
            if obs.enabled:
                wall = time.perf_counter() - wall_start
                obs.counter("des.events_fired", fired)
                obs.event(
                    "des.run",
                    fired=fired,
                    sim_time=self._now - sim_start,
                    wall_seconds=round(wall, 6),
                )
                if wall > 0:
                    obs.gauge("des.sim_wall_ratio", (self._now - sim_start) / wall)

    def __repr__(self) -> str:
        return f"Engine(now={self._now:g}, pending={len(self._heap)})"
