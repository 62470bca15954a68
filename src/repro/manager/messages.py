"""Message types exchanged between LRMs and the GRM.

Messages carry protocol data only.  Delivery is synchronous, so one
allocation's spans form a single causal tree across manager hops through
the tracer's span stack (see :mod:`repro.obs.tracing`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

__all__ = [
    "Message",
    "AvailabilityBatch",
    "AllocationRequestMsg",
    "AllocationGrant",
    "AllocationDenied",
    "ReleaseMsg",
]

_msg_counter = itertools.count(1)


@dataclass(frozen=True)
class Message:
    """Base class: every message carries sender and a unique id."""

    sender: str
    msg_id: int = field(default_factory=lambda: next(_msg_counter))


@dataclass(frozen=True)
class AvailabilityBatch(Message):
    """LRM -> GRM: available quantities of one resource type.

    "LRMs are responsible for providing resource availability information
    to the GRM dynamically."  ``reports`` holds ``(principal, available)``
    pairs: an LRM reports its own principal in a one-entry batch, and an
    aggregator refreshes every proxy's availability in a single message.
    """

    resource_type: str = "general"
    reports: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class AllocationRequestMsg(Message):
    """LRM -> GRM: a principal requests ``amount`` of ``resource_type``."""

    principal: str = ""
    resource_type: str = "general"
    amount: float = 0.0
    level: int | None = None


@dataclass(frozen=True)
class AllocationGrant(Message):
    """GRM -> LRM: the per-donor take plan answering a request."""

    request_id: int = 0
    takes: tuple[tuple[str, float], ...] = ()
    theta: float = 0.0

    def take_for(self, principal: str) -> float:
        return sum(q for p, q in self.takes if p == principal)

    @property
    def total(self) -> float:
        return sum(q for _, q in self.takes)


@dataclass(frozen=True)
class AllocationDenied(Message):
    """GRM -> LRM: the request cannot be satisfied."""

    request_id: int = 0
    reason: str = ""
    available: float = 0.0


@dataclass(frozen=True)
class ReleaseMsg(Message):
    """LRM -> GRM: previously granted resources are returned."""

    grant_id: int = 0
