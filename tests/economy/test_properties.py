"""Property-based tests of the currency valuation engine.

Invariants checked on randomly generated economies:
- a currency is always worth at least its own base deposits;
- issuing a ticket never decreases any currency's value;
- revoking a ticket never increases any currency's value;
- inflating a currency leaves its own value unchanged and scales the
  real value of every relative ticket it issued by exactly 1/factor;
- the flattened agreement system's capacities are consistent with
  currency values for two-level (acyclic, direct-agreement) economies;
- eliminating the virtual currencies matches the per-ticket composition
  of :mod:`flatten_reference`, bit for bit when there are none.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.economy import Bank
from repro.economy.ticket import TicketKind

from .flatten_reference import to_agreement_system as reference_flatten

TYPES = ("general", "disk")


@st.composite
def economies(draw):
    """Random acyclic-by-construction economies (tickets flow i -> j>i)."""
    n = draw(st.integers(2, 6))
    bank = Bank()
    for i in range(n):
        bank.create_currency(f"p{i}", face_value=draw(st.sampled_from([100.0, 500.0, 1000.0])))
    for i in range(n):
        if draw(st.booleans()):
            bank.deposit_capacity(f"p{i}", draw(st.floats(0.0, 100.0)), "general")
    # issue relative tickets only forward (i -> j > i): acyclic
    n_tickets = draw(st.integers(0, 8))
    for _ in range(n_tickets):
        i = draw(st.integers(0, n - 2))
        j = draw(st.integers(i + 1, n - 1))
        face = draw(st.floats(1.0, 50.0))
        bank.issue_relative_ticket(f"p{i}", f"p{j}", face)
    return bank


class TestValuationInvariants:
    @given(economies())
    @settings(max_examples=40, deadline=None)
    def test_value_at_least_base_deposits(self, bank):
        values = bank.currency_values()
        base = {c.name: 0.0 for c in bank.currencies}
        for t in bank.tickets:
            if t.is_base_capacity and not t.revoked:
                base[t.backing] += t.face_value
        for name, vec in values.items():
            assert vec["general"] >= base[name] - 1e-9

    @given(economies(), st.floats(1.0, 30.0))
    @settings(max_examples=40, deadline=None)
    def test_issuing_is_monotone(self, bank, face):
        before = {k: v["general"] for k, v in bank.currency_values().items()}
        names = bank.principals()
        bank.issue_relative_ticket(names[0], names[-1], face)
        after = {k: v["general"] for k, v in bank.currency_values().items()}
        for name in names:
            assert after[name] >= before[name] - 1e-9

    @given(economies())
    @settings(max_examples=40, deadline=None)
    def test_revocation_is_antitone(self, bank):
        agreements = [t for t in bank.tickets if t.is_agreement and not t.revoked]
        if not agreements:
            return
        before = {k: v["general"] for k, v in bank.currency_values().items()}
        bank.revoke_ticket(agreements[0].ticket_id)
        after = {k: v["general"] for k, v in bank.currency_values().items()}
        for name in before:
            assert after[name] <= before[name] + 1e-9

    @given(economies(), st.floats(0.25, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_inflation_scales_issued_tickets(self, bank, factor):
        names = bank.principals()
        target = names[0]
        issued = [
            t for t in bank.tickets
            if t.issuer == target and t.kind is TicketKind.RELATIVE and not t.revoked
        ]
        own_before = bank.currency_value(target)["general"]
        reals_before = {
            t.ticket_id: bank.ticket_real_value(t.ticket_id)["general"]
            for t in issued
        }
        bank.inflate_currency(target, factor)
        assert bank.currency_value(target)["general"] == pytest.approx(
            own_before, rel=1e-9, abs=1e-9
        )
        for t in issued:
            assert bank.ticket_real_value(t.ticket_id)["general"] == pytest.approx(
                reals_before[t.ticket_id] / factor, rel=1e-9, abs=1e-12
            )


class TestFlatteningConsistency:
    @given(economies())
    @settings(max_examples=30, deadline=None)
    def test_capacities_bounded_by_currency_values(self, bank):
        """The enforcement capacity C_i never exceeds the currency value:
        currency values propagate *all* inflow (value semantics), while U
        clamps each donor at its raw capacity."""
        system = bank.capacity_view("general")
        values = bank.currency_values()
        C = system.capacities()
        for p, c in zip(system.principals, C):
            assert c <= values[p]["general"] + 1e-6

    @given(economies())
    @settings(max_examples=30, deadline=None)
    def test_direct_agreements_match(self, bank):
        """S entries equal face/issuer-face for direct principal tickets."""
        system = bank.capacity_view("general")
        expected = np.zeros((system.n, system.n))
        for t in bank.tickets:
            if t.is_agreement and not t.revoked and t.kind is TicketKind.RELATIVE:
                i = system.index(t.issuer)
                j = system.index(t.backing)
                expected[i, j] += t.face_value / bank.currency(t.issuer).face_value
        np.testing.assert_allclose(system.S, expected, atol=1e-12)


@st.composite
def virtual_economies(draw, max_virtuals=4):
    """Principals and virtual currencies over two resource types.

    Virtual currencies are funded relatively, absolutely or both, and
    fund each other only forward (``w_a -> w_b`` with ``a < b``), so they
    form chains but no cycle; principals may fund each other freely.
    """
    n = draw(st.integers(2, 5))
    m = draw(st.integers(0, max_virtuals))
    faces = st.sampled_from([50.0, 100.0, 1000.0])
    bank = Bank()
    principals = [f"p{i}" for i in range(n)]
    virtuals = [f"w{k}" for k in range(m)]
    for p in principals:
        bank.create_currency(p, face_value=draw(faces))
    for v in virtuals:
        bank.create_currency(
            v, face_value=draw(faces), owner=draw(st.sampled_from(principals)), virtual=True
        )
    names = principals + virtuals
    for name in names:
        for rtype in TYPES:
            if draw(st.booleans()):
                bank.deposit_capacity(name, draw(st.floats(0.0, 100.0)), rtype)
    for _ in range(draw(st.integers(0, 12))):
        issuer = draw(st.sampled_from(names))
        backing = draw(st.sampled_from(names))
        if issuer == backing or (
            issuer in virtuals and backing in virtuals and backing < issuer
        ):
            continue
        if draw(st.booleans()):
            face = draw(st.floats(0.0, 0.6)) * bank.currency(issuer).face_value
            bank.issue_relative_ticket(issuer, backing, face)
        else:
            amount = draw(st.floats(0.0, 20.0))
            bank.issue_absolute_ticket(issuer, backing, amount, draw(st.sampled_from(TYPES)))
    return bank


class TestFlattenMatchesReference:
    @given(virtual_economies())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_ticket_composition(self, bank):
        for rtype in TYPES:
            principals, V, S, A = bank.to_agreement_system(rtype)
            ref_principals, ref_V, ref_S, ref_A = reference_flatten(bank, rtype)
            assert principals == ref_principals
            for got, want in ((V, ref_V), (S, ref_S), (A, ref_A)):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @given(virtual_economies(max_virtuals=0))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_without_virtual_currencies(self, bank):
        for rtype in TYPES:
            got = bank.to_agreement_system(rtype)
            want = reference_flatten(bank, rtype)
            assert got[0] == want[0]
            for a, b in zip(got[1:], want[1:]):
                assert np.array_equal(a, b)
