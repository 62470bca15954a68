"""Version-keyed topology caching on the bank, observed end to end.

The contract under test: the GRM never re-flattens the funding graph
while agreements are unchanged (the version-keyed cache absorbs every
allocation), yet any bank mutation — issuing or revoking a ticket —
bumps :attr:`Bank.version`, invalidates the cached topology, and changes
the *next* grant.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.agreements import complete_structure
from repro.economy import Bank
from repro.errors import EconomyError
from repro.manager import (
    AllocationDenied,
    AllocationGrant,
    AllocationRequestMsg,
    AvailabilityBatch,
    GlobalResourceManager,
    InProcessTransport,
)
from repro.proxysim.manager_bridge import ManagerPolicy
from repro.units import ResourceVector


@pytest.fixture
def observer():
    ob = obs.enable()
    yield ob
    obs.disable()


def two_node_cluster(share=0.5):
    """a shares ``share`` with b; only a has capacity."""
    transport = InProcessTransport()
    bank = Bank()
    grm = GlobalResourceManager("grm", bank)
    grm.attach(transport)
    grm.register_principal("a", ResourceVector(general=10.0))
    grm.register_principal("b", ResourceVector(general=0.0))
    ticket = bank.issue_relative_ticket("a", "b", share * 100)
    report_a_only(transport)
    return transport, bank, grm, ticket


def report_a_only(transport):
    """a has 10 free, b nothing."""
    transport.send(
        "grm", AvailabilityBatch(sender="a", reports=(("a", 10.0), ("b", 0.0)))
    )


def request_for_b(transport, amount=2.0):
    return transport.send(
        "grm",
        AllocationRequestMsg(sender="b", principal="b", amount=amount),
    )


#: Bank's public mutators; also the names perfbench's tracer wraps.
MUTATORS = (
    "create_currency",
    "deposit_capacity",
    "issue_absolute_ticket",
    "issue_relative_ticket",
    "revoke_ticket",
    "inflate_currency",
)


def seeded_bank():
    """Two principals, capacity on a, one relative ticket a -> b."""
    bank = Bank()
    bank.create_currency("a", face_value=100.0)
    bank.create_currency("b", face_value=100.0)
    bank.deposit_capacity("a", 10.0)
    ticket = bank.issue_relative_ticket("a", "b", 50)
    return bank, ticket


MUTATION_CALLS = {
    "create_currency": lambda bank, t: bank.create_currency("c"),
    "deposit_capacity": lambda bank, t: bank.deposit_capacity("b", 5.0),
    "issue_absolute_ticket": lambda bank, t: bank.issue_absolute_ticket("a", "b", 2.0),
    "issue_relative_ticket": lambda bank, t: bank.issue_relative_ticket("b", "a", 10),
    "revoke_ticket": lambda bank, t: bank.revoke_ticket(t.ticket_id),
    "inflate_currency": lambda bank, t: bank.inflate_currency("a", 2.0),
}


REJECTED_CALLS = {
    "duplicate_currency": lambda bank, t: bank.create_currency("a"),
    "double_revoke": lambda bank, t: bank.revoke_ticket(t.ticket_id),
    "self_backing_ticket": lambda bank, t: bank.issue_relative_ticket("a", "a", 10),
    "non_positive_inflation": lambda bank, t: bank.inflate_currency("a", 0.0),
}


class TestVersionCounter:
    def test_mutations_bump_version(self):
        bank = Bank()
        v = bank.version
        bank.create_currency("a", face_value=100.0)
        bank.create_currency("b", face_value=100.0)
        assert bank.version > v

        v = bank.version
        t = bank.issue_relative_ticket("a", "b", 50)
        assert bank.version == v + 1

        v = bank.version
        bank.revoke_ticket(t.ticket_id)
        assert bank.version == v + 1

        v = bank.version
        bank.inflate_currency("a", 2.0)
        assert bank.version == v + 1

    def test_mutators_are_exactly_the_marked_methods(self):
        marked = {name for name, fn in vars(Bank).items() if getattr(fn, "__mutates__", False)}
        assert marked == set(MUTATORS) == set(MUTATION_CALLS)

    @pytest.mark.parametrize("name", MUTATORS)
    def test_mutation_bumps_once_and_invalidates(self, name):
        bank, ticket = seeded_bank()
        v, before = bank.version, bank.topology()
        MUTATION_CALLS[name](bank, ticket)
        assert bank.version == v + 1
        assert bank.topology() is not before

    @pytest.mark.parametrize("case", sorted(REJECTED_CALLS))
    def test_rejected_mutation_keeps_version(self, case):
        bank, _ = seeded_bank()
        revoked = bank.issue_relative_ticket("b", "a", 10)
        bank.revoke_ticket(revoked.ticket_id)
        v = bank.version
        with pytest.raises(EconomyError):
            REJECTED_CALLS[case](bank, revoked)
        assert bank.version == v

    def test_reads_do_not_bump(self):
        bank = Bank()
        bank.create_currency("a", face_value=100.0)
        v = bank.version
        bank.topology()
        bank.capacity_view()
        bank.currency_values()
        assert bank.version == v


class TestTopologyCache:
    def test_same_version_same_object(self):
        bank = Bank()
        bank.create_currency("a", face_value=100.0)
        assert bank.topology() is bank.topology()

    def test_mutation_invalidates(self):
        bank = Bank()
        bank.create_currency("a", face_value=100.0)
        bank.create_currency("b", face_value=100.0)
        before = bank.topology()
        t = bank.issue_relative_ticket("a", "b", 30)
        after = bank.topology()
        assert after is not before
        assert after != before  # structurally: the share changed
        bank.revoke_ticket(t.ticket_id)
        assert bank.topology() == before  # back to no sharing

    def test_counters_track_hits_and_misses(self, observer):
        bank = Bank()
        bank.create_currency("a", face_value=100.0)
        bank.topology()
        bank.topology()
        bank.topology()
        reg = observer.registry
        assert reg.counter_total("topology.cache_miss") == 1
        assert reg.get_histogram("span.topology.rebuild").count == 1
        assert reg.counter_total("topology.cache_hit") == 2


class TestRevocationChangesGrants:
    def test_revocation_denies_next_request(self):
        transport, bank, grm, ticket = two_node_cluster()
        granted = request_for_b(transport)
        assert isinstance(granted, AllocationGrant)
        assert granted.take_for("a") == pytest.approx(2.0)

        bank.revoke_ticket(ticket.ticket_id)
        denied = request_for_b(transport)
        assert isinstance(denied, AllocationDenied)

    def test_issuing_enables_next_request(self):
        transport = InProcessTransport()
        bank = Bank()
        grm = GlobalResourceManager("grm", bank)
        grm.attach(transport)
        grm.register_principal("a", ResourceVector(general=10.0))
        grm.register_principal("b", ResourceVector(general=0.0))
        report_a_only(transport)
        assert isinstance(request_for_b(transport), AllocationDenied)
        bank.issue_relative_ticket("a", "b", 50)
        assert isinstance(request_for_b(transport), AllocationGrant)


class TestManagerPathCacheBehaviour:
    def test_zero_rebuilds_with_unchanged_agreements(self, observer):
        """A whole run of consultations costs exactly one topology build."""
        mp = ManagerPolicy(complete_structure(4, share=0.2))
        rng = np.random.default_rng(3)
        for _ in range(25):
            avail = rng.uniform(0.0, 100.0, size=4)
            req = int(rng.integers(0, 4))
            avail[req] = 0.0
            mp.plan(req, float(rng.uniform(1.0, 10.0)), avail)
        reg = observer.registry
        assert reg.counter_total("topology.cache_miss") == 1
        assert reg.counter_total("topology.cache_hit") >= 24

    def test_revocation_mid_run_changes_next_plan(self, observer):
        """Revoking every ticket mid-run starves remote placement."""
        mp = ManagerPolicy(complete_structure(3, share=0.2))
        avail = np.array([0.0, 50.0, 80.0])
        before = mp.plan(0, 10.0, avail.copy())
        assert before[1] + before[2] > 0  # remote placement happened

        for t in mp.bank.tickets:
            mp.bank.revoke_ticket(t.ticket_id)
        after = mp.plan(0, 10.0, avail.copy())
        assert after[0] == pytest.approx(10.0)  # everything stays local
        assert after[1] + after[2] == pytest.approx(0.0)
        # the mutation forced exactly one extra rebuild
        assert observer.registry.counter_total("topology.cache_miss") == 2


def _plan_modes(path):
    """The ``plan`` attribute of every ``flow.coefficients`` span, in order."""
    from repro.obs.events import read_trace

    return [
        r["attrs"]["plan"]
        for r in read_trace(path)
        if r.get("kind") == "span" and r["name"] == "flow.coefficients"
    ]


class TestCoefficientPlanHandOver:
    """A rebuild after a mutation replays the last topology's coefficient
    plan whenever the new shares fit the plan's pattern."""

    @staticmethod
    def bank(n=4, face=20.0):
        bank = Bank()
        names = [f"p{i}" for i in range(n)]
        for name in names:
            bank.create_currency(name, face_value=100.0)
        tickets = {
            (a, b): bank.issue_relative_ticket(a, b, face).ticket_id
            for a in names
            for b in names
            if a != b
        }
        return bank, tickets

    @staticmethod
    def assert_fresh(bank):
        """The bank's coefficients equal a fresh topology's, bit for bit."""
        from repro.agreements import AgreementTopology

        principals, _, S, A = bank.to_agreement_system()
        fresh = AgreementTopology(principals, S, A)
        assert bank.topology().coefficients().tobytes() == fresh.coefficients().tobytes()

    def test_first_and_standalone_topologies_keep_no_plans(self):
        bank, _ = self.bank()
        bank.topology().coefficients()
        assert bank.topology()._plans is None
        system = complete_structure(4, share=0.2)
        system.coefficients()
        assert system.topology._plans is None

    def test_each_mutation_kind(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.enable(trace_path=path)
        try:
            bank, tickets = self.bank()
            steps = [
                lambda: None,  # the bank's first topology
                lambda: bank.revoke_ticket(tickets.pop(("p0", "p1"))),
                # an edge the recorded plan lacks
                lambda: bank.issue_relative_ticket("p0", "p1", 25.0),
                lambda: bank.revoke_ticket(tickets.pop(("p1", "p2"))),
                lambda: bank.issue_relative_ticket("p1", "p2", 15.0),
                lambda: bank.inflate_currency("p3", 2.0),
                lambda: bank.create_currency("p4", face_value=100.0),
            ]
            for step in steps:
                step()
                self.assert_fresh(bank)
        finally:
            obs.disable()
        # each step builds the bank's coefficients, then a fresh topology's
        modes = _plan_modes(path)
        assert modes[0::2] == [
            "none", "recorded", "recorded", "replayed", "replayed", "replayed", "recorded",
        ]
        assert set(modes[1::2]) == {"none"}

    def test_each_level_keeps_its_own_plan(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.enable(trace_path=path)
        try:
            bank, tickets = self.bank(n=5)
            for ticket_id in [None, *list(tickets.values())[:3]]:
                if ticket_id is not None:
                    bank.revoke_ticket(ticket_id)
                for m in (1, 2, None):
                    bank.topology().coefficients(m)
        finally:
            obs.disable()
        assert _plan_modes(path) == ["none"] * 3 + ["recorded"] * 3 + ["replayed"] * 6
        assert sorted(bank.topology()._plans) == [1, 2, 4]
