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
the current availability vector to the cached topology as a
:class:`~repro.agreements.topology.CapacityView`.  Availability itself
is kept in per-resource-type vectors indexed through a prebuilt
name -> index map, so reports, grants and releases are O(1) updates and
:meth:`availability_vector` is a copy, not a rebuild.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

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
        # availability vectors per resource type, indexed by principal
        self._avail: dict[str, np.ndarray] = {}
        self._principals: list[str] = []
        self._pindex: dict[str, int] = {}
        self._pindex_version = -1  # bank version the index was built at
        # open grants: grant msg_id -> (resource_type, takes)
        self._grants: dict[int, tuple[str, tuple[tuple[str, float], ...]]] = {}
        self.requests_served = 0
        self.requests_denied = 0

    # -- wiring ------------------------------------------------------------------

    def attach(self, transport) -> None:
        self.transport = transport
        transport.register(self.name, self.handle)

    # -- availability ---------------------------------------------------------------

    def _sync_principals(self) -> None:
        """Refresh the name -> index map after a bank mutation.

        Availability values survive re-indexing by name, so registering a
        new principal (or any other agreement change) never drops the
        reports already received.
        """
        if self._pindex_version == self.bank.version:
            return
        principals = self.bank.principals()
        if principals != self._principals:
            old_index = self._pindex
            self._pindex = {p: i for i, p in enumerate(principals)}
            for rtype, old in self._avail.items():
                fresh = np.zeros(len(principals))
                for p, i in old_index.items():
                    j = self._pindex.get(p)
                    if j is not None:
                        fresh[j] = old[i]
                self._avail[rtype] = fresh
            self._principals = principals
        self._pindex_version = self.bank.version

    def _avail_vector(self, resource_type: str) -> np.ndarray:
        self._sync_principals()
        vec = self._avail.get(resource_type)
        if vec is None or vec.shape[0] != len(self._principals):
            vec = self._avail[resource_type] = np.zeros(len(self._principals))
        return vec

    def _on_batch(self, msg: AvailabilityBatch) -> None:
        """Store the batch's ``(principal, available)`` reports.

        The batch is checked whole before anything is stored, so a bad
        entry leaves the table as it was: an unknown name raises
        :class:`UnknownPrincipalError`, a negative or non-finite value
        :class:`ManagerError`.
        """
        vec = self._avail_vector(msg.resource_type)
        staged: dict[int, float] = {}
        for principal, available in msg.reports:
            i = self._pindex.get(principal)
            if i is None:
                raise UnknownPrincipalError(principal)
            value = float(available)
            if not 0.0 <= value < math.inf:
                raise ManagerError(
                    f"GRM {self.name!r}: availability of {principal!r} must be "
                    f"finite and non-negative, got {value!r}"
                )
            staged[i] = value
        for i, value in staged.items():
            vec[i] = value

    def availability(self, principal: str, resource_type: str = "general") -> float:
        vec = self._avail_vector(resource_type)
        idx = self._pindex.get(principal)
        return float(vec[idx]) if idx is not None else 0.0

    def availability_vector(self, resource_type: str = "general") -> np.ndarray:
        return self._avail_vector(resource_type).copy()

    # -- protocol --------------------------------------------------------------------

    def handle(self, message: Message) -> Message | None:
        handler = self.HANDLERS.get(type(message))
        if handler is None:
            raise ManagerError(f"GRM {self.name!r} cannot handle {type(message).__name__}")
        return handler(self, message)

    def _allocate(self, msg: AllocationRequestMsg) -> Message:
        self._sync_principals()
        if msg.principal not in self._pindex:
            raise UnknownPrincipalError(msg.principal)

        obs = get_observer()
        with obs.span("grm.allocate", grm=self.name, principal=msg.principal):
            # The topology is cached on the bank version: unchanged
            # agreements mean no re-flattening and no coefficient DP, just
            # a view over the live availability vector.
            topology = self.bank.topology(msg.resource_type)
            live = topology.view(self.availability_vector(msg.resource_type))
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
                        availability_before=self._named(live.V),
                        capacities_before=self._named(
                            live.capacities(msg.level)
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
                takes = tuple(
                    (p, float(t))
                    for p, t in zip(self._principals, allocation.take)
                    if t > 1e-12
                )
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
                vec = self._avail_vector(msg.resource_type)
                for p, t in takes:
                    i = self._pindex[p]
                    vec[i] = max(vec[i] - t, 0.0)
                self._grants[grant.msg_id] = (msg.resource_type, takes)
                self.requests_served += 1
                obs.counter("grm.requests_served", grm=self.name)
                return grant

    def _named(self, vector) -> dict[str, float]:
        """A per-principal dict view of a vector (for decision records)."""
        return {p: float(v) for p, v in zip(self._principals, vector)}

    def _release(self, msg: ReleaseMsg) -> None:
        try:
            resource_type, takes = self._grants.pop(msg.grant_id)
        except KeyError:
            raise ManagerError(
                f"GRM {self.name!r} has no open grant {msg.grant_id}"
            ) from None
        vec = self._avail_vector(resource_type)
        for p, t in takes:
            i = self._pindex.get(p)
            if i is not None:
                vec[i] += t

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
