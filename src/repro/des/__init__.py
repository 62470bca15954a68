"""A small discrete-event simulation kernel.

The paper's case study is a trace-driven simulation of cooperating web
proxies; this package is the substrate it runs on:

- :class:`~repro.des.engine.Engine` — event heap + clock with
  deterministic FIFO tie-breaking;
- :class:`~repro.des.queues.WorkQueue` — a single-server FIFO work queue
  with queueing-delay accounting (the proxy front-end);
- :mod:`~repro.des.stats` — time-sliced statistics accumulators used to
  produce the per-10-minute-slot series the paper's figures plot.
"""

from .engine import Engine, Event
from .queues import QueuedItem, WorkQueue
from .stats import SlotSeries, SummaryStats

__all__ = [
    "Engine",
    "Event",
    "WorkQueue",
    "QueuedItem",
    "SlotSeries",
    "SummaryStats",
]
