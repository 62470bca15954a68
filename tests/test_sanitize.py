"""The runtime invariant sanitizer (REPRO_SANITIZE=1).

Each test injects a fault the type system cannot see — a ticket value
tampered behind the bank's back, a forged donor split, a broken clamp —
and asserts the sanitizer epilogues catch it as an
:class:`~repro.errors.InvariantViolation` carrying the in-flight
decision context.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import repro.manager.grm as grm_module
import repro.obs as obs
from repro import sanitize
from repro.agreements import CapacityView
from repro.allocation import Allocation, AllocationRequest
from repro.economy import Bank
from repro.errors import InvariantViolation
from repro.manager import (
    AllocationRequestMsg,
    GlobalResourceManager,
    InProcessTransport,
    LocalResourceManager,
)
from repro.units import ResourceVector


@pytest.fixture
def observed():
    obs.enable()
    yield
    obs.disable()


def build_cluster(n=4, capacity=10.0, share=0.2):
    transport = InProcessTransport()
    bank = Bank()
    grm = GlobalResourceManager("grm", bank)
    grm.attach(transport)
    for i in range(n):
        p = f"isp{i}"
        grm.register_principal(p, ResourceVector(general=capacity))
        lrm = LocalResourceManager(p, ResourceVector(general=capacity))
        lrm.attach(transport)
        lrm.report()
    for i in range(n):
        for j in range(n):
            if i != j:
                bank.issue_relative_ticket(f"isp{i}", f"isp{j}", share * 100)
    return transport, grm, bank


def request(principal="isp0", amount=2.0):
    return AllocationRequestMsg(sender=principal, principal=principal, amount=amount)


class TestGates:
    def test_disabled_hooks_are_noops(self):
        prev = sanitize.enabled()
        sanitize.disable()
        try:
            # A split that conserves nothing passes silently when off.
            sanitize_state = sanitize.enabled()
            assert not sanitize_state
            transport, grm, bank = build_cluster()
            tampered = bank.tickets[0]
            tampered.face_value = tampered.face_value * 7
            reply = transport.send("grm", request())
            assert reply.takes
        finally:
            if prev:
                sanitize.enable()

    def test_enable_disable_round_trip(self):
        prev = sanitize.enabled()
        sanitize.enable()
        assert sanitize.enabled()
        sanitize.disable()
        assert not sanitize.enabled()
        if prev:
            sanitize.enable()


class TestBankInvariants:
    def test_version_monotonic(self, sanitized):
        bank = Bank()
        bank.create_currency("a")
        with pytest.raises(InvariantViolation, match="did not advance"):
            sanitize.bank_mutated(bank, bank.version)

    def test_tampered_ticket_value_caught(self, sanitized):
        transport, grm, bank = build_cluster()
        # First allocation snapshots the valuation at this bank version.
        transport.send("grm", request(amount=1.0))
        # Tamper a ticket directly: no mutator, no version bump.
        ticket = bank.tickets[0]
        ticket.face_value = ticket.face_value * 7
        with pytest.raises(InvariantViolation) as exc_info:
            transport.send("grm", request(amount=1.0))
        assert exc_info.value.invariant == "bank-value-conservation"

    def test_bumped_mutation_is_fine(self, sanitized):
        transport, grm, bank = build_cluster()
        transport.send("grm", request(amount=1.0))
        # The same magnitude of change *through* the bank API is legal.
        bank.inflate_currency("isp1", 2.0)
        reply = transport.send("grm", request(amount=1.0))
        assert reply.takes


class TestGrantInvariants:
    def _forged_allocation(self, system, principal, amount):
        n = system.n
        take = np.zeros(n)
        take[system.index(principal)] = amount / 2  # claims amount, takes half
        return Allocation(
            request=AllocationRequest(principal, amount, None),
            take=take,
            theta=0.0,
            satisfied=float(amount),
            new_V=np.maximum(system.V - take, 0.0),
            new_C=np.asarray(system.capacities(), dtype=float),
            scheme="lp",
            principals=list(system.principals),
        )

    def test_forged_donor_split_caught(self, sanitized, monkeypatch):
        transport, grm, bank = build_cluster()

        def forged(system, principal, amount, **kwargs):
            return self._forged_allocation(system, principal, float(amount))

        monkeypatch.setattr(grm_module, "allocate_lp", forged)
        with pytest.raises(InvariantViolation) as exc_info:
            transport.send("grm", request(amount=4.0))
        assert exc_info.value.invariant == "donor-split-conservation"

    def test_violation_carries_decision_context(
        self, sanitized, observed, monkeypatch
    ):
        transport, grm, bank = build_cluster()

        def forged(system, principal, amount, **kwargs):
            return self._forged_allocation(system, principal, float(amount))

        monkeypatch.setattr(grm_module, "allocate_lp", forged)
        with pytest.raises(InvariantViolation) as exc_info:
            transport.send("grm", request(principal="isp2", amount=4.0))
        decision = exc_info.value.decision
        assert decision is not None
        assert decision.requestor == "isp2"
        assert decision.amount == pytest.approx(4.0)
        assert decision.grm == "grm"
        assert "request_id" in str(exc_info.value)


class TestAllocationInvariants:
    def test_capacity_monotone_violation(self, sanitized):
        allocation = SimpleNamespace(
            take=np.array([1.0, 0.0]),
            satisfied=1.0,
            theta=0.0,
            new_C=np.array([5.0, 9.0]),
            scheme="test",
        )
        with pytest.raises(InvariantViolation, match="C' > C"):
            sanitize.check_allocation(np.array([5.0, 3.0]), allocation)

    def test_take_conservation_violation(self, sanitized):
        allocation = SimpleNamespace(
            take=np.array([1.0, 0.5]),
            satisfied=3.0,
            theta=0.0,
            new_C=None,
            scheme="test",
        )
        with pytest.raises(InvariantViolation, match="satisfied"):
            sanitize.check_allocation(None, allocation)

    def test_negative_theta_violation(self, sanitized):
        allocation = SimpleNamespace(
            take=np.array([1.0]),
            satisfied=1.0,
            theta=-0.5,
            new_C=None,
            scheme="test",
        )
        with pytest.raises(InvariantViolation, match="theta"):
            sanitize.check_allocation(None, allocation)

    def test_honest_lp_allocation_passes(self, sanitized):
        system = CapacityView.from_matrices(
            ["a", "b"], np.array([10.0, 10.0]), np.array([[0.0, 0.4], [0.4, 0.0]])
        )
        from repro.allocation import allocate_lp

        allocation = allocate_lp(system, "a", 12.0)
        assert allocation.satisfied == pytest.approx(12.0)

    def test_agreement_bound_violation(self, sanitized):
        allocation = SimpleNamespace(
            take=np.array([1.0, 4.5]),
            satisfied=5.5,
            theta=0.0,
            new_C=None,
            scheme="test",
        )
        with pytest.raises(InvariantViolation, match="agreement bound") as exc_info:
            sanitize.check_allocation(None, allocation, np.array([2.0, 4.0]))
        assert exc_info.value.details["index"] == 1
        sanitize.check_allocation(None, allocation, np.array([2.0, 4.5]))

    def test_finalize_checks_constraint_4(self, sanitized):
        """A take above ``U[k, A]`` fails every scheme's epilogue, and the
        requester's own take is bounded by ``V[A]``."""
        from repro.allocation import Allocation, AllocationRequest

        system = CapacityView.from_matrices(
            ["a", "b"], np.array([10.0, 10.0]), np.array([[0.0, 0.4], [0.4, 0.0]])
        )
        request = AllocationRequest("a", 12.0)
        # U[b, a] = 4, so b may give at most 4 of a's 12.
        Allocation.finalize(system, request, np.array([8.0, 4.0]), "lp")
        with pytest.raises(InvariantViolation, match="agreement bound"):
            Allocation.finalize(system, request, np.array([7.0, 5.0]), "lp")
        with pytest.raises(InvariantViolation, match="agreement bound"):
            Allocation.finalize(system, request, np.array([11.0, 1.0]), "endpoint")
        with pytest.raises(InvariantViolation, match="agreement bound"):
            Allocation.finalize(system, request, np.array([7.0, 5.0]), "hierarchical")


class TestCoefficientInvariants:
    def test_overdraft_clamp_bounds(self, sanitized):
        T = np.array([[0.0, 1.5], [0.2, 0.0]])
        with pytest.raises(InvariantViolation, match="K"):
            sanitize.check_coefficients(T)
        sanitize.check_coefficients(np.array([[0.0, 1.0], [0.2, 0.0]]))

    def test_negative_coefficient(self, sanitized):
        T = np.array([[0.0, -0.3], [0.2, 0.0]])
        with pytest.raises(InvariantViolation, match="negative"):
            sanitize.check_coefficients(T)

    def test_real_overdraft_topology_passes(self, sanitized):
        system = CapacityView.from_matrices(
            ["a", "b", "c"],
            np.array([10.0, 10.0, 10.0]),
            np.array([[0.0, 0.9, 0.9], [0.3, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        )
        K = system.coefficients()
        assert float(K.max()) <= 1.0 + 1e-9

    def test_replay_differing_from_the_full_dp(self, sanitized):
        T = np.array([[0.0, 0.5], [0.25, 0.0]])
        sanitize.check_replay(T, T.copy())
        with pytest.raises(InvariantViolation, match="replayed"):
            sanitize.check_replay(T, np.nextafter(T, 1.0))

    def test_forged_plan_caught_on_replay(self, sanitized):
        """A plan claiming a pattern it never recorded replays a ``T``
        that misses the paths through the claimed edges."""
        from repro.agreements import AgreementTopology, flow

        S = np.zeros((3, 3))
        S[0, 1] = 0.5
        plan = flow.CoefficientPlan()
        flow.transitive_coefficients(S, 2, plan=plan)
        plan.pattern = ~np.eye(3, dtype=bool)  # every edge, forged
        S[1, 2] = 0.5
        topology = AgreementTopology(["a", "b", "c"], S)
        topology._plans = {2: plan}
        with pytest.raises(InvariantViolation, match="replayed"):
            topology.coefficients(2)

    def test_bank_replays_pass(self, sanitized):
        bank = Bank()
        for name in "abcd":
            bank.create_currency(name, face_value=100.0)
        tickets = [bank.issue_relative_ticket(a, b, 20.0) for a in "abcd" for b in "abcd" if a != b]
        bank.topology().coefficients()
        for ticket in tickets[:4]:
            bank.revoke_ticket(ticket.ticket_id)
            bank.topology().coefficients()
            bank.issue_relative_ticket(ticket.issuer, ticket.backing, 30.0)
            bank.topology().coefficients()
        assert bank.topology()._plans[3].recorded
