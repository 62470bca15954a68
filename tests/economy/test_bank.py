"""Tests for the ticket/currency bank: registry, valuation, revocation."""

import math

import numpy as np
import pytest

from repro.economy import Bank, TicketKind
from repro.errors import (
    CurrencyCycleError,
    DuplicateNameError,
    EconomyError,
    TicketRevokedError,
    UnknownCurrencyError,
    UnknownTicketError,
)


@pytest.fixture
def bank():
    b = Bank()
    b.create_currency("A", face_value=1000)
    b.create_currency("B", face_value=100)
    return b


class TestRegistry:
    def test_create_and_lookup(self, bank):
        assert bank.currency("A").face_value == 1000
        assert bank.principals() == ["A", "B"]

    def test_duplicate_currency_rejected(self, bank):
        with pytest.raises(DuplicateNameError):
            bank.create_currency("A")

    def test_unknown_currency(self, bank):
        with pytest.raises(UnknownCurrencyError):
            bank.currency("Z")

    def test_unknown_ticket(self, bank):
        with pytest.raises(UnknownTicketError):
            bank.ticket(999)

    def test_virtual_requires_owner(self, bank):
        with pytest.raises(EconomyError, match="owner"):
            bank.create_currency("V1", virtual=True)

    @pytest.mark.parametrize("owner", ["Nobody", "A1"])
    def test_virtual_owner_must_be_a_principal(self, bank, owner):
        """The flatten charges a virtual currency's absolute grants to its
        owner, so an owner that is no principal would lose them there while
        valuation kept them."""
        bank.create_currency("A1", owner="A", virtual=True)
        version = bank.version
        with pytest.raises(EconomyError, match="not a principal"):
            bank.create_currency("Av", owner=owner, virtual=True)
        assert bank.version == version
        assert [c.name for c in bank.currencies] == ["A", "B", "A1"]

    @pytest.mark.parametrize("owner", ["Nobody", "A"])
    def test_default_currency_owned_by_itself(self, bank, owner):
        """The flatten charges a currency's absolute grants to its owner, so
        a default currency owned by anyone else would lose them (or book
        them as someone else's) while valuation kept them."""
        version = bank.version
        with pytest.raises(EconomyError, match="owned by its principal"):
            bank.create_currency("C", owner=owner)
        assert bank.version == version
        assert [c.name for c in bank.currencies] == ["A", "B"]
        assert bank.create_currency("C", owner="C").owner == "C"

    def test_virtual_excluded_from_principals(self, bank):
        bank.create_currency("A1", owner="A", virtual=True)
        assert bank.principals() == ["A", "B"]

    def test_nonpositive_face_value_rejected(self):
        b = Bank()
        with pytest.raises(EconomyError):
            b.create_currency("X", face_value=0)


class TestTicketIssue:
    def test_deposit_is_base_capacity(self, bank):
        t = bank.deposit_capacity("A", 10, "disk")
        assert t.is_base_capacity
        assert not t.is_agreement
        assert t.kind is TicketKind.ABSOLUTE

    def test_self_backing_rejected(self, bank):
        with pytest.raises(EconomyError, match="cannot back itself"):
            bank.issue_relative_ticket("A", "A", 10)
        with pytest.raises(EconomyError, match="cannot back itself"):
            bank.issue_absolute_ticket("A", "A", 10)

    def test_negative_face_rejected(self, bank):
        with pytest.raises(EconomyError, match="negative face"):
            bank.issue_relative_ticket("A", "B", -5)

    def test_absolute_needs_concrete_resource(self, bank):
        from repro.economy.ticket import Ticket

        with pytest.raises(EconomyError, match="concrete resource"):
            Ticket(kind=TicketKind.ABSOLUTE, face_value=1.0, backing="B")

    def test_relative_needs_issuer(self):
        from repro.economy.ticket import Ticket

        with pytest.raises(EconomyError, match="issued by a currency"):
            Ticket(kind=TicketKind.RELATIVE, face_value=1.0, backing="B")


class TestValuation:
    def test_empty_currency_is_worthless(self, bank):
        assert bank.currency_value("A").is_zero()

    def test_deposit_sets_value(self, bank):
        bank.deposit_capacity("A", 10, "disk")
        assert bank.currency_value("A")["disk"] == pytest.approx(10.0)

    def test_multiple_resource_types(self, bank):
        bank.deposit_capacity("A", 10, "disk")
        bank.deposit_capacity("A", 4, "cpu")
        v = bank.currency_value("A")
        assert v["disk"] == pytest.approx(10.0)
        assert v["cpu"] == pytest.approx(4.0)
        assert bank.resource_types() == ["cpu", "disk"]

    def test_relative_ticket_transfers_fraction(self, bank):
        bank.deposit_capacity("A", 10, "disk")
        bank.issue_relative_ticket("A", "B", 500)  # 50% of A
        assert bank.currency_value("B")["disk"] == pytest.approx(5.0)

    def test_relative_transfers_all_types(self, bank):
        bank.deposit_capacity("A", 10, "disk")
        bank.deposit_capacity("A", 4, "cpu")
        bank.issue_relative_ticket("A", "B", 250)  # 25%
        v = bank.currency_value("B")
        assert v["disk"] == pytest.approx(2.5)
        assert v["cpu"] == pytest.approx(1.0)

    def test_issuing_does_not_reduce_issuer_value(self, bank):
        # Sharing semantics: both grantor and grantee can use the resource.
        bank.deposit_capacity("A", 10, "disk")
        bank.issue_relative_ticket("A", "B", 500)
        assert bank.currency_value("A")["disk"] == pytest.approx(10.0)

    def test_chained_relative_tickets(self, bank):
        bank.create_currency("C")
        bank.deposit_capacity("A", 10, "disk")
        bank.issue_relative_ticket("A", "B", 500)  # B gets 5
        bank.issue_relative_ticket("B", "C", 50)  # C gets 50% of B
        assert bank.currency_value("C")["disk"] == pytest.approx(2.5)

    def test_absolute_agreement_adds_face(self, bank):
        bank.deposit_capacity("A", 10, "disk")
        bank.issue_absolute_ticket("A", "B", 3, "disk")
        assert bank.currency_value("B")["disk"] == pytest.approx(3.0)

    def test_ticket_real_value_absolute(self, bank):
        t = bank.issue_absolute_ticket("A", "B", 3, "disk")
        assert bank.ticket_real_value(t.ticket_id)["disk"] == pytest.approx(3.0)

    def test_ticket_real_value_relative(self, bank):
        bank.deposit_capacity("A", 10, "disk")
        t = bank.issue_relative_ticket("A", "B", 500)
        assert bank.ticket_real_value(t.ticket_id)["disk"] == pytest.approx(5.0)

    def test_contractive_cycle_is_fine(self, bank):
        # A and B each share 40% with the other: fixed point exists.
        bank.deposit_capacity("A", 10, "disk")
        bank.deposit_capacity("B", 10, "disk")
        bank.issue_relative_ticket("A", "B", 400)  # 40% of A
        bank.issue_relative_ticket("B", "A", 40)  # 40% of B
        vA = bank.currency_value("A")["disk"]
        vB = bank.currency_value("B")["disk"]
        # v_A = 10 + 0.4 v_B, v_B = 10 + 0.4 v_A -> v = 10/0.6 * ... = 16.666
        assert vA == pytest.approx(10 / 0.6)
        assert vB == pytest.approx(10 / 0.6)

    def test_expansive_virtual_cycle_raises_in_valuation_and_flatten(self):
        """v0 <-> v1 multiplies by 1.5 per lap: both solves must refuse it
        rather than the flatten dropping B's agreement."""
        bank = Bank()
        bank.create_currency("A")
        bank.create_currency("B")
        bank.create_currency("v0", owner="A", virtual=True)
        bank.create_currency("v1", owner="A", virtual=True)
        bank.deposit_capacity("A", 10, "general")
        bank.issue_relative_ticket("A", "v0", 50)
        bank.issue_relative_ticket("v0", "v1", 150)
        bank.issue_relative_ticket("v1", "v0", 100)
        bank.issue_relative_ticket("v1", "B", 50)
        with pytest.raises(CurrencyCycleError):
            bank.currency_values()
        with pytest.raises(CurrencyCycleError):
            bank.to_agreement_system("general")

    def test_non_contractive_cycle_raises(self, bank):
        bank.deposit_capacity("A", 10, "disk")
        bank.issue_relative_ticket("A", "B", 1000)  # 100%
        bank.issue_relative_ticket("B", "A", 100)  # 100%
        with pytest.raises(CurrencyCycleError):
            bank.currency_values()


class TestNonFiniteInputs:
    """A NaN or infinity is rejected where it enters the economy, so it
    never reaches the funding matrix."""

    @pytest.mark.parametrize(
        "change",
        [
            lambda b: b.issue_relative_ticket("A", "B", math.nan),
            lambda b: b.issue_relative_ticket("A", "B", math.inf),
            lambda b: b.issue_absolute_ticket("A", "B", math.nan, "disk"),
            lambda b: b.inflate_currency("A", math.inf),
            lambda b: b.inflate_currency("A", math.nan),
            lambda b: b.deposit_capacity("A", math.nan, "disk"),
            lambda b: b.deposit_capacity("A", math.inf, "disk"),
            lambda b: b.create_currency("C", face_value=math.nan),
            lambda b: b.create_currency("C", face_value=math.inf),
        ],
        ids=[
            "relative-nan", "relative-inf", "absolute-nan", "inflate-inf",
            "inflate-nan", "deposit-nan", "deposit-inf", "currency-nan", "currency-inf",
        ],
    )
    def test_rejected_without_a_version_bump(self, bank, change):
        bank.deposit_capacity("A", 10, "disk")
        bank.issue_relative_ticket("A", "B", 500)
        version = bank.version
        with pytest.raises(EconomyError):
            change(bank)
        assert bank.version == version
        assert bank.currency_value("B")["disk"] == pytest.approx(5.0)
        np.testing.assert_allclose(bank.capacity_view("disk").capacities(), [10.0, 5.0])


class TestInflation:
    def test_inflation_devalues_relative_tickets(self, bank):
        bank.deposit_capacity("A", 10, "disk")
        t = bank.issue_relative_ticket("A", "B", 500)
        bank.inflate_currency("A", 2.0)  # face 1000 -> 2000
        assert bank.ticket_real_value(t.ticket_id)["disk"] == pytest.approx(2.5)

    def test_deflation_boosts_relative_tickets(self, bank):
        bank.deposit_capacity("A", 10, "disk")
        t = bank.issue_relative_ticket("A", "B", 500)
        bank.inflate_currency("A", 0.5)
        assert bank.ticket_real_value(t.ticket_id)["disk"] == pytest.approx(10.0)

    def test_bad_inflation_factor(self, bank):
        with pytest.raises(EconomyError):
            bank.inflate_currency("A", 0.0)


class TestRevocation:
    def test_revoked_ticket_worthless(self, bank):
        bank.deposit_capacity("A", 10, "disk")
        t = bank.issue_relative_ticket("A", "B", 500)
        bank.revoke_ticket(t.ticket_id)
        assert bank.currency_value("B").is_zero()
        assert bank.ticket_real_value(t.ticket_id).is_zero()

    def test_double_revoke_rejected(self, bank):
        t = bank.deposit_capacity("A", 10, "disk")
        bank.revoke_ticket(t.ticket_id)
        with pytest.raises(TicketRevokedError):
            bank.revoke_ticket(t.ticket_id)

    def test_revoking_capacity_reduces_value(self, bank):
        t1 = bank.deposit_capacity("A", 10, "disk")
        bank.deposit_capacity("A", 5, "disk")
        bank.revoke_ticket(t1.ticket_id)
        assert bank.currency_value("A")["disk"] == pytest.approx(5.0)

    def test_revoked_tickets_are_forgotten(self, bank):
        """Reissuing one agreement 1,000 times leaves the bank no bigger."""
        bank.deposit_capacity("A", 10, "general")
        t = bank.issue_relative_ticket("A", "B", 300)
        n_before = len(bank.tickets)
        before = bank.capacity_view()
        for _ in range(1000):
            revoked = t
            bank.revoke_ticket(revoked.ticket_id)
            t = bank.issue_relative_ticket("A", "B", 300)
        assert len(bank.tickets) == n_before
        assert "REVOKED" in repr(revoked)
        after = bank.capacity_view()
        np.testing.assert_array_equal(after.V, before.V)
        np.testing.assert_array_equal(after.S, before.S)
        np.testing.assert_array_equal(after.capacities(1), before.capacities(1))


class TestOverissue:
    def test_overissued_detection(self, bank):
        bank.issue_relative_ticket("A", "B", 700)
        assert bank.overissued_currencies() == []
        bank.create_currency("C")
        bank.issue_relative_ticket("A", "C", 600)  # 1300 > face 1000
        assert bank.overissued_currencies() == ["A"]


class TestAgreementExport:
    def test_simple_export(self, bank):
        bank.deposit_capacity("A", 10, "general")
        bank.issue_relative_ticket("A", "B", 300)
        principals, V, S, A = bank.to_agreement_system("general")
        assert principals == ["A", "B"]
        assert V.tolist() == [10.0, 0.0]
        assert S[0, 1] == pytest.approx(0.3)
        assert not np.any(A)

    def test_export_filters_resource_type(self, bank):
        bank.deposit_capacity("A", 10, "disk")
        bank.deposit_capacity("A", 4, "cpu")
        _, V, _, _ = bank.to_agreement_system("cpu")
        assert V.tolist() == [4.0, 0.0]

    def test_absolute_agreements_in_A(self, bank):
        bank.deposit_capacity("A", 10, "general")
        bank.issue_absolute_ticket("A", "B", 3, "general")
        _, _, S, A = bank.to_agreement_system("general")
        assert A[0, 1] == pytest.approx(3.0)
        assert not np.any(S)

    def test_revoked_agreements_excluded(self, bank):
        bank.deposit_capacity("A", 10, "general")
        t = bank.issue_relative_ticket("A", "B", 300)
        bank.revoke_ticket(t.ticket_id)
        _, _, S, _ = bank.to_agreement_system("general")
        assert not np.any(S)
