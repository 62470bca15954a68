"""Tests for the GRM/LRM architecture and its message protocol."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.economy import Bank
from repro.errors import ManagerError, UnknownPrincipalError
from repro.manager import (
    AllocationDenied,
    AllocationGrant,
    AllocationRequestMsg,
    AvailabilityBatch,
    GlobalResourceManager,
    InProcessTransport,
    LocalResourceManager,
    Message,
    ReleaseMsg,
)
from repro.units import ResourceVector


def build_cluster(n=4, capacity=10.0, share=0.2):
    """A GRM + n LRMs on one transport, complete sharing structure."""
    transport = InProcessTransport()
    bank = Bank()
    grm = GlobalResourceManager("grm", bank)
    grm.attach(transport)
    lrms = []
    for i in range(n):
        p = f"isp{i}"
        grm.register_principal(p, ResourceVector(general=capacity))
        lrm = LocalResourceManager(p, ResourceVector(general=capacity))
        lrm.attach(transport)
        lrms.append(lrm)
    for i in range(n):
        for j in range(n):
            if i != j:
                bank.issue_relative_ticket(f"isp{i}", f"isp{j}", share * 100)
    for lrm in lrms:
        lrm.report()
    return transport, grm, lrms


class TestTransport:
    def test_duplicate_endpoint(self):
        t = InProcessTransport()
        t.register("a", lambda m: None)
        with pytest.raises(ManagerError):
            t.register("a", lambda m: None)

    def test_unknown_endpoint(self):
        t = InProcessTransport()
        with pytest.raises(ManagerError):
            t.send("ghost", AvailabilityBatch(sender="x"))


class TestAvailabilityReports:
    def test_reports_tracked(self):
        _, grm, _ = build_cluster()
        assert grm.availability("isp0") == pytest.approx(10.0)

    def test_reservation_lowers_report(self):
        transport, grm, lrms = build_cluster()
        lrms[0].reserve(99, ResourceVector(general=4.0))
        lrms[0].report()
        assert grm.availability("isp0") == pytest.approx(6.0)

    def test_lrm_report_requires_attach(self):
        lrm = LocalResourceManager("x", ResourceVector(general=1.0))
        with pytest.raises(ManagerError, match="not attached"):
            lrm.report()


def report(transport, *reports):
    return transport.send("grm", AvailabilityBatch(sender="test", reports=reports))


def request(transport, principal, amount):
    return transport.send(
        "grm",
        AllocationRequestMsg(sender=principal, principal=principal, amount=amount),
    )


class TestAvailabilityValidation:
    """A batch is checked whole before the GRM stores any of it."""

    def test_negative_report_rejected(self):
        transport, grm, _ = build_cluster(n=2)
        with pytest.raises(ManagerError, match=r"'isp1'.*-5\.0"):
            report(transport, ("isp1", -5.0))
        assert grm.availability("isp1") == pytest.approx(10.0)
        # the table is still usable: every principal's requests go on
        assert isinstance(request(transport, "isp0", 1.0), AllocationGrant)
        assert isinstance(request(transport, "isp1", 1.0), AllocationGrant)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_report_rejected(self, bad):
        transport, grm, _ = build_cluster(n=2, share=0.5)
        with pytest.raises(ManagerError, match=f"'isp1'.*{bad}"):
            report(transport, ("isp1", bad))
        assert grm.availability("isp1") == pytest.approx(10.0)

    def test_unknown_name_stores_nothing(self):
        transport, grm, _ = build_cluster(n=2)
        with pytest.raises(UnknownPrincipalError):
            report(transport, ("isp0", 3.0), ("ghost", 1.0))
        assert grm.availability("isp0") == pytest.approx(10.0)


class TestAllocation:
    def test_local_grant(self):
        transport, grm, _ = build_cluster()
        reply = transport.send(
            "grm",
            AllocationRequestMsg(sender="isp0", principal="isp0", amount=5.0),
        )
        assert isinstance(reply, AllocationGrant)
        assert reply.total == pytest.approx(5.0)
        assert reply.take_for("isp0") == pytest.approx(5.0)

    def test_remote_grant_uses_agreements(self):
        transport, grm, _ = build_cluster()
        reply = transport.send(
            "grm",
            AllocationRequestMsg(sender="isp0", principal="isp0", amount=14.0),
        )
        assert isinstance(reply, AllocationGrant)
        assert reply.total == pytest.approx(14.0)
        assert reply.take_for("isp0") == pytest.approx(10.0)
        remote = reply.total - reply.take_for("isp0")
        assert remote == pytest.approx(4.0)

    def test_denial_when_insufficient(self):
        transport, grm, _ = build_cluster(n=2, capacity=1.0, share=0.1)
        reply = transport.send(
            "grm",
            AllocationRequestMsg(sender="isp0", principal="isp0", amount=50.0),
        )
        assert isinstance(reply, AllocationDenied)
        assert grm.requests_denied == 1

    def test_grant_updates_cached_availability(self):
        transport, grm, _ = build_cluster()
        transport.send(
            "grm",
            AllocationRequestMsg(sender="isp0", principal="isp0", amount=5.0),
        )
        assert grm.availability("isp0") == pytest.approx(5.0)

    def test_release_restores_availability(self):
        transport, grm, _ = build_cluster()
        grant = transport.send(
            "grm",
            AllocationRequestMsg(sender="isp0", principal="isp0", amount=5.0),
        )
        transport.send("grm", ReleaseMsg(sender="isp0", grant_id=grant.msg_id))
        assert grm.availability("isp0") == pytest.approx(10.0)
        assert grm.open_grants() == 0

    def test_release_unknown_grant(self):
        transport, grm, _ = build_cluster()
        with pytest.raises(ManagerError, match="no open grant"):
            transport.send("grm", ReleaseMsg(sender="isp0", grant_id=12345))

    def test_unknown_principal(self):
        transport, grm, _ = build_cluster()
        with pytest.raises(UnknownPrincipalError):
            transport.send(
                "grm",
                AllocationRequestMsg(sender="zzz", principal="zzz", amount=1.0),
            )

    def test_level_limits_grant(self):
        """Chain a->b->c in the bank: at level 1, c cannot reach a."""
        transport = InProcessTransport()
        bank = Bank()
        grm = GlobalResourceManager("grm", bank)
        grm.attach(transport)
        grm.register_principal("a", ResourceVector(general=8.0))
        grm.register_principal("b", ResourceVector(general=0.0))
        grm.register_principal("c", ResourceVector(general=0.0))
        bank.issue_relative_ticket("a", "b", 50)
        bank.issue_relative_ticket("b", "c", 50)
        transport.send(
            "grm",
            AvailabilityBatch(
                sender="a", reports=(("a", 8.0), ("b", 0.0), ("c", 0.0))
            ),
        )
        denied = transport.send(
            "grm",
            AllocationRequestMsg(sender="c", principal="c", amount=1.0, level=1),
        )
        assert isinstance(denied, AllocationDenied)
        granted = transport.send(
            "grm",
            AllocationRequestMsg(sender="c", principal="c", amount=1.0, level=2),
        )
        assert isinstance(granted, AllocationGrant)
        assert granted.take_for("a") == pytest.approx(1.0)


def message_types(cls=Message):
    """Every library ``Message`` subclass, recursively."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            yield sub
        yield from message_types(sub)


class TestProtocolClosure:
    """The GRM's handler table and its replies cover the whole protocol."""

    REPLIES = {AllocationGrant, AllocationDenied}

    def test_every_message_is_handled_or_a_reply(self):
        handled = set(GlobalResourceManager.HANDLERS)
        unclaimed = {t.__name__ for t in message_types() if t not in handled | self.REPLIES}
        assert unclaimed == set()

    def test_table_keys_are_messages(self):
        for key in GlobalResourceManager.HANDLERS:
            assert isinstance(key, type) and issubclass(key, Message)

    def test_unhandled_type_raises(self):
        transport, _, _ = build_cluster(n=2)
        with pytest.raises(ManagerError, match="cannot handle Message"):
            transport.send("grm", Message(sender="isp0"))


class TestLRMReservations:
    def test_over_reservation_rejected(self):
        lrm = LocalResourceManager("x", ResourceVector(general=5.0))
        with pytest.raises(ManagerError, match="only"):
            lrm.reserve(1, ResourceVector(general=6.0))

    def test_release_returns_amount(self):
        lrm = LocalResourceManager("x", ResourceVector(general=5.0))
        lrm.reserve(1, ResourceVector(general=2.0))
        returned = lrm.release(1)
        assert returned["general"] == pytest.approx(2.0)
        assert lrm.available() == pytest.approx(5.0)

    def test_release_unknown(self):
        lrm = LocalResourceManager("x", ResourceVector(general=5.0))
        with pytest.raises(ManagerError):
            lrm.release(7)

    def test_incremental_reservation(self):
        lrm = LocalResourceManager("x", ResourceVector(general=5.0))
        lrm.reserve(1, ResourceVector(general=2.0))
        lrm.reserve(1, ResourceVector(general=1.0))
        assert lrm.available() == pytest.approx(2.0)


class TestPaperOverdraft:
    """Section 3.2's overdraft example held as tickets: A shares 60% with
    B and 60% with C, and B passes all of its value on to C.  C's chained
    share of A's 10 units is 12, which the clamp limits to 10."""

    @pytest.fixture
    def transport(self):
        transport = InProcessTransport()
        bank = Bank()
        GlobalResourceManager("grm", bank).attach(transport)
        for p, capacity in (("A", 10.0), ("B", 0.0), ("C", 0.0)):
            bank.create_currency(p)
            bank.deposit_capacity(p, capacity)
        bank.issue_relative_ticket("A", "B", 60)
        bank.issue_relative_ticket("A", "C", 60)
        bank.issue_relative_ticket("B", "C", 100)
        assert bank.overissued_currencies() == ["A"]
        report(transport, ("A", 10.0), ("B", 0.0), ("C", 0.0))
        return transport

    def test_request_within_clamp_granted(self, transport):
        reply = request(transport, "C", 5.0)
        assert isinstance(reply, AllocationGrant)
        assert sum(t for _, t in reply.takes) == pytest.approx(5.0, abs=1e-9)

    def test_request_past_clamp_denied_at_ten(self, transport):
        reply = request(transport, "C", 12.0)
        assert isinstance(reply, AllocationDenied)
        assert reply.available == pytest.approx(10.0, abs=1e-9)


def _ring_bank():
    """Six nodes of 10 units, each sharing 30% with the next."""
    bank = Bank()
    for i in range(6):
        bank.create_currency(f"n{i}")
        bank.deposit_capacity(f"n{i}", 10.0)
    for i in range(6):
        bank.issue_relative_ticket(f"n{i}", f"n{(i + 1) % 6}", 30)
    return bank


def _complete_bank():
    """Ten nodes of 10 units, each sharing 10% with every other."""
    bank = Bank()
    names = [f"n{i}" for i in range(10)]
    for p in names:
        bank.create_currency(p)
        bank.deposit_capacity(p, 10.0)
    for i in names:
        for j in names:
            if i != j:
                bank.issue_relative_ticket(i, j, 10)
    return bank


class TestNoOverCommit:
    """One GRM keeps one availability table, so however requests arrive,
    no donor lends more than it reported."""

    @given(data=st.data(), make_bank=st.sampled_from([_ring_bank, _complete_bank]))
    @settings(max_examples=25, deadline=None)
    def test_takes_never_exceed_reported_availability(self, data, make_bank):
        bank = make_bank()
        transport = InProcessTransport()
        GlobalResourceManager("grm", bank).attach(transport)
        names = bank.principals()
        avail = st.floats(0.0, 20.0, allow_nan=False)
        reported = {p: data.draw(avail) for p in names}
        report(transport, *reported.items())
        taken = dict.fromkeys(names, 0.0)
        for _ in range(data.draw(st.integers(1, 12))):
            reply = request(
                transport,
                data.draw(st.sampled_from(names)),
                data.draw(st.floats(0.1, 15.0)),
            )
            if isinstance(reply, AllocationGrant):
                for donor, take in reply.takes:
                    taken[donor] += take
        for p in names:
            assert taken[p] <= reported[p] + 1e-9, p
