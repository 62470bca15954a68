"""The case study's simulation clock and proxy front-end queue.

The paper's case study is a trace-driven simulation of cooperating web
proxies; this package is the substrate it runs on:

- :class:`~repro.des.engine.Engine` — a fixed-step clock that calls the
  simulation's tick every ``epoch`` seconds;
- :class:`~repro.des.queues.WorkQueue` — a single-server FIFO work queue
  with queueing-delay accounting (the proxy front-end).
"""

from .engine import Engine
from .queues import QueuedItem, WorkQueue

__all__ = ["Engine", "WorkQueue", "QueuedItem"]
