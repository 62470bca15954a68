"""Local resource manager.

An LRM owns one principal's physical resources, reports availability to
the GRM, and fulfils the GRM's allocation decisions ("fulfilling resource
allocation according to the GRM's decisions").  Reservations are tracked
per grant so releases restore exactly what was taken.
"""

from __future__ import annotations

from ..errors import ManagerError
from ..obs import get_observer
from ..units import ResourceVector
from .messages import AvailabilityBatch, Message

__all__ = ["LocalResourceManager"]


class LocalResourceManager:
    """Owns and meters one principal's resources.

    ::

        lrm = LocalResourceManager("isp0", ResourceVector(general=10.0))
        lrm.attach(transport)
        lrm.report("general")            # -> AvailabilityBatch to the GRM
    """

    def __init__(self, principal: str, capacity: ResourceVector, grm: str = "grm"):
        self.principal = principal
        self.capacity = capacity
        self.grm = grm
        self._reserved: dict[int, ResourceVector] = {}
        self.transport = None

    # -- wiring -----------------------------------------------------------------

    def attach(self, transport) -> None:
        """Register this LRM on a transport (endpoint named after it)."""
        self.transport = transport
        transport.register(self.principal, self.handle)

    # -- resource accounting -------------------------------------------------------

    @property
    def reserved(self) -> ResourceVector:
        total = ResourceVector()
        for r in self._reserved.values():
            total = total + r
        return total

    def available(self, resource_type: str = "general") -> float:
        return max(self.capacity[resource_type] - self.reserved[resource_type], 0.0)

    def reserve(self, grant_id: int, amount: ResourceVector) -> None:
        """Set aside resources for a grant the GRM issued."""
        for rtype, qty in amount.items():
            if qty > self.available(rtype) + 1e-9:
                raise ManagerError(
                    f"LRM {self.principal!r} asked to reserve {qty:g} {rtype} "
                    f"but only {self.available(rtype):g} is free"
                )
        if grant_id in self._reserved:
            self._reserved[grant_id] = self._reserved[grant_id] + amount
        else:
            self._reserved[grant_id] = amount

    def release(self, grant_id: int) -> ResourceVector:
        """Return the resources held for a grant."""
        try:
            return self._reserved.pop(grant_id)
        except KeyError:
            raise ManagerError(
                f"LRM {self.principal!r} holds no reservation for grant {grant_id}"
            ) from None

    # -- protocol ---------------------------------------------------------------------

    def report(self, resource_type: str = "general"):
        """Push this principal's availability to the GRM as a one-entry
        :class:`AvailabilityBatch`.

        Runs inside an ``lrm.report`` span, so when tracing is on the
        transport hop and the GRM's handling join the report's trace.
        """
        if self.transport is None:
            raise ManagerError(f"LRM {self.principal!r} is not attached")
        obs = get_observer()
        obs.counter("lrm.reports", principal=self.principal)
        with obs.span("lrm.report", principal=self.principal):
            return self.transport.send(
                self.grm,
                AvailabilityBatch(
                    sender=self.principal,
                    resource_type=resource_type,
                    reports=((self.principal, self.available(resource_type)),),
                ),
            )

    def handle(self, message: Message) -> Message | None:
        """LRMs only receive informational messages in this implementation;
        reservations are driven by the GRM through :meth:`reserve`."""
        return None
