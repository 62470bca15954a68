"""Global resource manager.

The GRM owns the agreement registry (a ticket/currency
:class:`~repro.economy.Bank`), keeps the latest availability report from
every LRM, and answers allocation requests by solving the Section-3 LP
over the agreement system evaluated at current availability.  One GRM
keeps one availability table, so no donor's capacity is promised twice.

Hot path: allocation reuses the bank's version-keyed topology cache
(:meth:`repro.economy.Bank.topology`), so the coefficient DP (exponential
in n; ~2 ms at n = 10) and the funding-graph flattening run once per
*agreement change* rather than once per request; each request only binds
the current availability to the cached topology as a
:class:`~repro.agreements.topology.CapacityView`.  Availability itself
is kept per resource type and principal *name*, so reports, grants and
releases are O(1) updates that survive any agreement change, and a
request reads it in the cached topology's principal order, the order
the grant's takes are named in.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .. import sanitize as _sanitize
from ..allocation.lp_allocator import allocate_lp
from ..economy.bank import Bank
from ..errors import (
    InsufficientResourcesError,
    ManagerError,
    UnknownPrincipalError,
)
from ..obs import get_observer
from ..units import ResourceVector
from .messages import (
    AllocationDenied,
    AllocationGrant,
    AllocationRequestMsg,
    AvailabilityBatch,
    Message,
    ReleaseMsg,
)

__all__ = ["GlobalResourceManager"]


class GlobalResourceManager:
    """Agreement registry + availability tracker + LP scheduler.

    ::

        grm = GlobalResourceManager("grm", bank)
        grm.attach(transport)
        ... LRMs report availability ...
        reply = transport.send("grm", AllocationRequestMsg(
            sender="isp3", principal="isp3", amount=2.5))
    """

    def __init__(self, name: str, bank: Bank):
        self.name = name
        self.bank = bank
        self.transport = None
        # reported availability per resource type, keyed by principal name
        self._avail: dict[str, dict[str, float]] = {}
        # open grants: grant msg_id -> (resource_type, takes)
        self._grants: dict[int, tuple[str, tuple[tuple[str, float], ...]]] = {}
        self.requests_served = 0
        self.requests_denied = 0

    # -- wiring ------------------------------------------------------------------

    def attach(self, transport) -> None:
        self.transport = transport
        transport.register(self.name, self.handle)

    # -- availability ---------------------------------------------------------------

    def _on_batch(self, msg: AvailabilityBatch) -> None:
        """Store the batch's ``(principal, available)`` reports.

        The batch is checked whole before anything is stored, so a bad
        entry leaves the table as it was: an unknown name raises
        :class:`UnknownPrincipalError`, a negative or non-finite value
        :class:`ManagerError`.
        """
        known = set(self.bank.principals())
        staged: dict[str, float] = {}
        for principal, available in msg.reports:
            if principal not in known:
                raise UnknownPrincipalError(principal)
            value = float(available)
            if not 0.0 <= value < math.inf:
                raise ManagerError(
                    f"GRM {self.name!r}: availability of {principal!r} must be "
                    f"finite and non-negative, got {value!r}"
                )
            staged[principal] = value
        self._avail.setdefault(msg.resource_type, {}).update(staged)

    def availability(self, principal: str, resource_type: str = "general") -> float:
        return self._avail.get(resource_type, {}).get(principal, 0.0)

    # -- protocol --------------------------------------------------------------------

    def handle(self, message: Message) -> Message | None:
        handler = self.HANDLERS.get(type(message))
        if handler is None:
            raise ManagerError(f"GRM {self.name!r} cannot handle {type(message).__name__}")
        return handler(self, message)

    def _allocate(self, msg: AllocationRequestMsg) -> Message:
        obs = get_observer()
        with obs.span("grm.allocate", grm=self.name, principal=msg.principal):
            # The topology is cached on the bank version: unchanged
            # agreements mean no re-flattening and no coefficient DP, just
            # a view over the reported availability, read in the
            # topology's principal order.
            topology = self.bank.topology(msg.resource_type)
            principals = topology.principals
            if msg.principal not in principals:
                raise UnknownPrincipalError(msg.principal)
            table = self._avail.setdefault(msg.resource_type, {})
            live = topology.view([table.get(p, 0.0) for p in principals])
            # The flight-recorder entry: deeper layers attach to it while
            # the block is open (the LP solver its statistics, the
            # allocation epilogue the grant itself).
            with obs.decision(
                request_id=msg.msg_id,
                requestor=msg.principal,
                resource_type=msg.resource_type,
                amount=float(msg.amount),
                grm=self.name,
                bank_version=self.bank.version,
            ) as dec:
                if obs.enabled:
                    dec.set(
                        availability_before=dict(zip(principals, live.V.tolist())),
                        capacities_before=dict(
                            zip(principals, live.capacities(msg.level).tolist())
                        ),
                    )
                try:
                    allocation = allocate_lp(
                        live, msg.principal, msg.amount, level=msg.level
                    )
                except InsufficientResourcesError as exc:
                    self.requests_denied += 1
                    obs.counter("grm.requests_denied", grm=self.name)
                    dec.set(
                        outcome="denied",
                        reason=str(exc),
                        available=float(exc.available),
                    )
                    return AllocationDenied(
                        sender=self.name,
                        request_id=msg.msg_id,
                        reason=str(exc),
                        available=exc.available,
                    )
                takes = tuple(allocation.takes_by_name().items())
                grant = AllocationGrant(
                    sender=self.name,
                    request_id=msg.msg_id,
                    takes=takes,
                    theta=allocation.theta,
                )
                if _sanitize.enabled():
                    # Grant epilogue: the split on the wire conserves the
                    # granted amount and the bank did not drift at a
                    # constant version.
                    _sanitize.check_grant(takes, allocation.satisfied)
                    _sanitize.check_bank(self.bank)
                # Update cached availability until fresh reports arrive, and
                # remember the grant so a release can restore it.
                for p, t in takes:
                    table[p] = max(table.get(p, 0.0) - t, 0.0)
                self._grants[grant.msg_id] = (msg.resource_type, takes)
                self.requests_served += 1
                obs.counter("grm.requests_served", grm=self.name)
                return grant

    def _release(self, msg: ReleaseMsg) -> None:
        try:
            resource_type, takes = self._grants.pop(msg.grant_id)
        except KeyError:
            raise ManagerError(
                f"GRM {self.name!r} has no open grant {msg.grant_id}"
            ) from None
        table = self._avail.setdefault(resource_type, {})
        for p, t in takes:
            table[p] = table.get(p, 0.0) + t

    #: The GRM's side of the protocol: every message type it accepts, by
    #: exact type.  Its replies are :class:`AllocationGrant` and
    #: :class:`AllocationDenied`; anything else is rejected by :meth:`handle`.
    HANDLERS: dict[type[Message], Callable[..., Message | None]] = {
        AvailabilityBatch: _on_batch,
        AllocationRequestMsg: _allocate,
        ReleaseMsg: _release,
    }

    # -- conveniences -----------------------------------------------------------------

    def register_principal(
        self, principal: str, capacity: ResourceVector | None = None
    ) -> None:
        """Create the principal's default currency (and deposit capacity)."""
        self.bank.create_currency(principal)
        if capacity is not None:
            for rtype, qty in capacity.items():
                self.bank.deposit_capacity(principal, qty, rtype)

    def open_grants(self) -> int:
        return len(self._grants)
