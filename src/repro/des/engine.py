"""Fixed-step simulation clock.

The paper's case study inspects every proxy's front-end queue at a fixed
interval, so its clock is a loop over tick times: ``epoch, 2*epoch, ...``,
each built by adding ``epoch`` to the last, up to and including ``until``.

Ticks fire inside :meth:`Engine.run`, so a span a tick opens nests under
whatever span is open around the ``run()`` call (for the proxy simulation,
``proxysim.run``).
"""

from __future__ import annotations

from collections.abc import Callable

from ..errors import SimulationError

__all__ = ["Engine"]


class Engine:
    """The simulation clock.

    ::

        Engine(epoch=60.0).run(until=86_400.0, tick=lambda now: print(now))
    """

    def __init__(self, epoch: float):
        if not epoch > 0:
            raise SimulationError(f"epoch must be positive, got {epoch:g}")
        self.epoch = float(epoch)
        self.events_processed = 0

    def run(self, until: float, tick: Callable[[float], None]) -> None:
        """Call ``tick(now)`` at every tick time ``now <= until``."""
        fired = 0
        now = self.epoch
        while now <= until:
            tick(now)
            fired += 1
            now += self.epoch
        self.events_processed += fired
