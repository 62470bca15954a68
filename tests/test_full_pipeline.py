"""Capstone integration: shares -> express -> enforce -> operate.

A consortium of four sites with uneven capacity wants guaranteed
effective capacities.  We (1) take the minimal shares meeting the
targets (the hub gives the edge 1/8 and the newcomer 1/4 of its 16),
(2) *express* them as tickets in a bank, (3) stand up the GRM/LRM
*managers* over that bank, and (4) verify that grants at the agreed
level actually deliver the targets — the whole paper in one test.
"""

import numpy as np
import pytest

from repro.agreements import CapacityView
from repro.manager import (
    AllocationDenied,
    AllocationGrant,
    AllocationRequestMsg,
    GlobalResourceManager,
    InProcessTransport,
    LocalResourceManager,
    ReleaseMsg,
)
from repro.proxysim.manager_bridge import bank_for_structure
from repro.units import ResourceVector

SITES = ["hub", "mid", "edge", "new"]
V = np.array([16.0, 8.0, 4.0, 0.0])
TARGETS = np.array([16.0, 8.0, 6.0, 4.0])
S = np.array(
    [
        [0.0, 0.0, 0.125, 0.25],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ]
)


@pytest.fixture
def negotiated():
    return CapacityView.from_matrices(SITES, V, S)


class TestNegotiateExpressEnforce:
    def test_negotiated_targets_hold(self, negotiated):
        assert np.all(negotiated.capacities(1) >= TARGETS - 1e-6)

    def test_expression_round_trip(self, negotiated):
        """Shares -> tickets -> flattened matrices reproduces S exactly."""
        bank = bank_for_structure(negotiated)
        for site, cap in zip(SITES, V):
            if cap > 0:
                bank.deposit_capacity(site, float(cap), "general")
        system = bank.capacity_view()
        np.testing.assert_allclose(system.S, negotiated.S, atol=1e-9)
        np.testing.assert_allclose(system.V, V)

    def test_managers_deliver_targets(self, negotiated):
        transport, grm, lrms = stand_up(negotiated)

        # Every site can obtain its full target through the GRM.
        for site, target in zip(SITES, TARGETS):
            if target <= 0:
                continue
            grant = claim(transport, lrms, site, float(target))
            assert isinstance(grant, AllocationGrant), site
            assert grant.total == pytest.approx(float(target))
            # Release so the next site starts clean.
            transport.send("grm", ReleaseMsg(sender=site, grant_id=grant.msg_id))
            for donor, _ in grant.takes:
                lrms[donor].release(grant.msg_id)

        assert grm.requests_denied == 0

    def test_simultaneous_targets_not_guaranteed(self, negotiated):
        """The targets are per-principal guarantees, not a simultaneous
        allocation: the hub's capacity backs several agreements at once
        (the paper's sharing semantics), so claiming everything at the
        same time exhausts raw capacity — 34 promised against 28 owned."""
        transport, grm, lrms = stand_up(negotiated)
        replies = {
            site: claim(transport, lrms, site, float(target))
            for site, target in zip(SITES, TARGETS)
        }
        # The hub and mid claim their own capacity first; the hub's grant
        # leaves nothing behind its shares with edge and new.
        assert isinstance(replies["hub"], AllocationGrant)
        assert isinstance(replies["mid"], AllocationGrant)
        assert isinstance(replies["edge"], AllocationDenied)
        assert replies["edge"].available == pytest.approx(4.0)
        assert isinstance(replies["new"], AllocationDenied)
        assert replies["new"].available == pytest.approx(0.0)
        assert grm.requests_denied == 2


def stand_up(negotiated):
    """A GRM over the negotiated bank and one LRM per site, all reported."""
    bank = bank_for_structure(negotiated)
    transport = InProcessTransport()
    grm = GlobalResourceManager("grm", bank)
    grm.attach(transport)
    lrms = {}
    for site, cap in zip(SITES, V):
        if float(cap) > 0:
            bank.deposit_capacity(site, float(cap), "general")
        lrm = LocalResourceManager(site, ResourceVector(general=float(cap)))
        lrm.attach(transport)
        lrms[site] = lrm
        lrm.report()
    return transport, grm, lrms


def claim(transport, lrms, site, amount):
    """Request ``amount`` for ``site`` and, if granted, reserve the takes."""
    reply = transport.send(
        "grm", AllocationRequestMsg(sender=site, principal=site, amount=amount)
    )
    if isinstance(reply, AllocationGrant):
        for donor, taken in reply.takes:
            lrms[donor].reserve(reply.msg_id, ResourceVector(general=taken))
    return reply
