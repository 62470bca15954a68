"""Edge cases of Bank.to_agreement_system: virtual-currency chains with
absolute components, chained virtuals, and mixed funding."""

import numpy as np
import pytest

from repro.economy import Bank


class TestAbsoluteThroughVirtual:
    def test_relative_ticket_from_absolutely_funded_virtual(self):
        """A funds a virtual currency with an *absolute* ticket; a relative
        ticket from that virtual is effectively an absolute grant."""
        bank = Bank()
        bank.create_currency("A")
        bank.create_currency("B")
        bank.create_currency("Av", owner="A", virtual=True)
        bank.deposit_capacity("A", 20.0, "general")
        bank.issue_absolute_ticket("A", "Av", 6.0, "general")
        bank.issue_relative_ticket("Av", "B", 50)  # half of Av's 6
        principals, V, S, A = bank.to_agreement_system("general")
        assert principals == ["A", "B"]
        assert V.tolist() == [20.0, 0.0]
        assert not np.any(S)  # no relative component survives
        assert A[0, 1] == pytest.approx(3.0)

    def test_mixed_funding_splits_into_S_and_A(self):
        """A virtual funded by both a relative and an absolute ticket
        yields both an S share and an A grant."""
        bank = Bank()
        bank.create_currency("A", face_value=100)
        bank.create_currency("B")
        bank.create_currency("Av", owner="A", virtual=True)
        bank.deposit_capacity("A", 10.0, "general")
        bank.issue_relative_ticket("A", "Av", 40)  # 40% of A
        bank.issue_absolute_ticket("A", "Av", 2.0, "general")
        bank.issue_relative_ticket("Av", "B", 50)  # half of Av
        _, _, S, A = bank.to_agreement_system("general")
        assert S[0, 1] == pytest.approx(0.20)
        assert A[0, 1] == pytest.approx(1.0)

    def test_chained_virtual_currencies(self):
        """A -> Av1 -> Av2 -> B composes the fractions."""
        bank = Bank()
        bank.create_currency("A", face_value=100)
        bank.create_currency("B")
        bank.create_currency("Av1", owner="A", virtual=True)
        bank.create_currency("Av2", owner="A", virtual=True)
        bank.deposit_capacity("A", 10.0, "general")
        bank.issue_relative_ticket("A", "Av1", 60)
        bank.issue_relative_ticket("Av1", "Av2", 50)
        bank.issue_relative_ticket("Av2", "B", 50)
        _, _, S, _ = bank.to_agreement_system("general")
        assert S[0, 1] == pytest.approx(0.6 * 0.5 * 0.5)

    def test_agreement_system_capacity_matches(self):
        bank = Bank()
        bank.create_currency("A")
        bank.create_currency("B")
        bank.create_currency("Av", owner="A", virtual=True)
        bank.deposit_capacity("A", 20.0, "general")
        bank.issue_absolute_ticket("A", "Av", 6.0, "general")
        bank.issue_relative_ticket("Av", "B", 50)
        system = bank.capacity_view("general")
        assert system.capacity_of("B") == pytest.approx(3.0)


class TestResourceTypeFiltering:
    def test_absolute_virtual_funding_filtered_by_type(self):
        bank = Bank()
        bank.create_currency("A")
        bank.create_currency("B")
        bank.create_currency("Av", owner="A", virtual=True)
        bank.deposit_capacity("A", 5.0, "cpu")
        bank.deposit_capacity("A", 50.0, "disk")
        bank.issue_absolute_ticket("A", "Av", 10.0, "disk")
        bank.issue_relative_ticket("Av", "B", 100)
        _, _, _, A_cpu = bank.to_agreement_system("cpu")
        _, _, _, A_disk = bank.to_agreement_system("disk")
        assert not np.any(A_cpu)
        assert A_disk[0, 1] == pytest.approx(10.0)

    def test_deposits_into_virtual_currencies_not_raw_capacity(self):
        """Base deposits parked in a virtual currency count only through
        issued tickets (documented behaviour)."""
        bank = Bank()
        bank.create_currency("A")
        bank.create_currency("Av", owner="A", virtual=True)
        bank.deposit_capacity("Av", 7.0, "general")
        _, V, _, _ = bank.to_agreement_system("general")
        assert V.tolist() == [0.0]
