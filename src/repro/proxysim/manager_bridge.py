"""Driving the proxy simulation through the GRM/LRM manager protocol.

The benchmark runs use :class:`~repro.proxysim.redirect.LPPolicy`, which
calls the allocator directly for speed.  :class:`ManagerPolicy` instead
routes every scheduler consultation through the Section-3.2 architecture:
availability reports and allocation requests travel as messages to a
:class:`~repro.manager.grm.GlobalResourceManager` holding the agreements
as a ticket/currency bank.  Results are identical (the GRM runs the same
LP); what this buys is end-to-end exercise of the deployment path — and a
place where agreement changes made on the *bank* (revoking a ticket)
immediately affect scheduling decisions: every mutation bumps
:attr:`~repro.economy.Bank.version`, which invalidates the GRM's cached
topology, so the very next consultation is scheduled against the changed
agreements.

Message traffic per consultation is one :class:`AvailabilityBatch`
(carrying all n proxy reports) plus the allocation request.  From the
second consultation on, a :class:`ReleaseMsg` first returns the previous
consultation's grant: the simulator books redirected work itself and
reports fresh availability every time, so a grant is dead once its plan
is made, and releasing it keeps the GRM's open-grant table at one entry
for the whole run.
"""

from __future__ import annotations

import numpy as np

from ..economy.bank import Bank
from ..manager.grm import GlobalResourceManager
from ..manager.messages import (
    AllocationGrant,
    AllocationRequestMsg,
    AvailabilityBatch,
    ReleaseMsg,
)
from ..manager.transport import InProcessTransport
from ..obs import get_observer
from .redirect import RedirectPolicy

__all__ = ["ManagerPolicy", "bank_for_structure"]


def bank_for_structure(system) -> Bank:
    """Express a :class:`~repro.agreements.CapacityView`'s relative
    agreements as tickets in a fresh bank (capacities are reported live by
    the simulator, so no base deposits are made)."""
    bank = Bank()
    for p in system.principals:
        bank.create_currency(p, face_value=100.0)
    n = system.n
    for i in range(n):
        for j in range(n):
            if i != j and system.S[i, j] > 0:
                bank.issue_relative_ticket(
                    system.principals[i],
                    system.principals[j],
                    100.0 * float(system.S[i, j]),
                )
    return bank


class ManagerPolicy(RedirectPolicy):
    """A redirect policy backed by a GRM over a message transport.

    Each :meth:`plan` call releases the previous call's grant, then sends
    one batched availability report covering every proxy, followed by an
    allocation request, exactly as an LRM aggregator would.
    """

    def __init__(self, system, level: int | None = None):
        self.level = level
        self.n = system.n
        self.principals = list(system.principals)
        self._pindex = {p: i for i, p in enumerate(self.principals)}
        self.transport = InProcessTransport()
        self.bank = bank_for_structure(system)
        self.grm = GlobalResourceManager("grm", self.bank)
        self.grm.attach(self.transport)
        #: messages sent to the GRM over the policy's lifetime
        self.messages = 0
        #: msg_id of the most recent allocation request — the key for
        #: ``repro.obs.explain`` against the decision flight recorder
        self.last_request_id: int | None = None
        #: (sender, grant msg_id) of the grant the next plan releases
        self._held: tuple[str, int] | None = None

    def _send(self, message):
        self.messages += 1
        return self.transport.send("grm", message)

    def plan(self, requester: int, excess: float, avail: np.ndarray) -> np.ndarray:
        # The whole consultation — availability batch, request, possible
        # re-request — is one trace rooted here (unless an outer span,
        # e.g. a proxysim consult, already opened one).
        obs = get_observer()
        with obs.span(
            "manager.plan",
            requester=self.principals[requester],
            excess=float(excess),
        ):
            if self._held is not None:
                sender, grant_id = self._held
                self._send(ReleaseMsg(sender=sender, grant_id=grant_id))
                self._held = None
            # One batched availability refresh for all proxies.
            self._send(
                AvailabilityBatch(
                    sender=self.principals[requester],
                    resource_type="general",
                    reports=tuple(
                        (principal, float(avail[k]))
                        for k, principal in enumerate(self.principals)
                    ),
                )
            )
            request = AllocationRequestMsg(
                sender=self.principals[requester],
                principal=self.principals[requester],
                amount=float(excess),
                level=self.level,
            )
            self.last_request_id = request.msg_id
            reply = self._send(request)
            if not isinstance(reply, AllocationGrant):
                # The GRM uses request/deny semantics; an overloaded proxy
                # re-requests what the denial quoted as available.
                available = getattr(reply, "available", 0.0)
                if available > 1e-9:
                    retry = AllocationRequestMsg(
                        sender=self.principals[requester],
                        principal=self.principals[requester],
                        amount=float(available) * (1 - 1e-9),
                        level=self.level,
                    )
                    self.last_request_id = retry.msg_id
                    reply = self._send(retry)
            take = np.zeros(self.n)
            if isinstance(reply, AllocationGrant):
                self._held = (self.principals[requester], reply.msg_id)
                for principal, amount in reply.takes:
                    take[self._pindex[principal]] = amount
            # Denials and any unplaced remainder stay local.
            take[requester] += max(excess - take.sum(), 0.0)
            return take
