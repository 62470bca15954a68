"""The GRM/LRM resource-manager architecture (Section 3.2).

"The resource management system has two components: a centralized global
resource manager (GRM) and multiple local resource managers (LRM).  The
GRM provides services to manage sharing agreements and to schedule
resources among local resource managers.  LRMs are responsible for
providing resource availability information to the GRM dynamically, and
fulfilling resource allocation according to the GRM's decisions."

This package implements that architecture over an in-process
message-passing transport (:mod:`~repro.manager.transport`), so the
allocation engine is exercised through the same two-component protocol a
distributed deployment would use:

- :class:`~repro.manager.lrm.LocalResourceManager` — owns physical
  resources, reports availability, executes grants/releases;
- :class:`~repro.manager.grm.GlobalResourceManager` — owns the agreement
  registry (a ticket/currency :class:`~repro.economy.Bank`), tracks
  availability reports, and answers allocation requests with the LP
  allocator.

The paper also remarks that the GRM could be split into multiple levels.
That split is not built: children scheduling over one bank must still
draw on one availability table, or two of them hand out the same donor
capacity twice, and a shared table makes them one GRM behind a router.
"""

from .grm import GlobalResourceManager
from .lrm import LocalResourceManager
from .messages import (
    AllocationDenied,
    AllocationGrant,
    AllocationRequestMsg,
    AvailabilityBatch,
    Message,
    ReleaseMsg,
)
from .transport import InProcessTransport

__all__ = [
    "GlobalResourceManager",
    "LocalResourceManager",
    "InProcessTransport",
    "Message",
    "AvailabilityBatch",
    "AllocationRequestMsg",
    "AllocationGrant",
    "AllocationDenied",
    "ReleaseMsg",
]
