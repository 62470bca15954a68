"""Ground-truth tests: the paper's Example 1 (Figure 1) and Example 2 (Figure 2).

The expected numbers are quoted verbatim in Section 2.2:
- "the real value of R-Ticket4 is 10 x 500/1000 = 5";
- "this relative ticket boosts the value of currency B to 5 + 15 = 20";
- "the true value of this ticket is 20 x 60/100 = 12";
- "virtual currency A1 has the value of R-Ticket3, which is 3, and virtual
  currency A2 has the value of R-Ticket4, which is 5".
"""

import pytest

from repro.economy import build_example_1, build_example_2


class TestExample1:
    @pytest.fixture(autouse=True)
    def _build(self):
        self.bank, self.tickets = build_example_1()

    def test_currency_A_value(self):
        assert self.bank.currency_value("A")["disk"] == pytest.approx(10.0)

    def test_rticket4_is_5(self):
        t = self.tickets["R-Ticket4"]
        assert self.bank.ticket_real_value(t.ticket_id)["disk"] == pytest.approx(5.0)

    def test_currency_B_boosted_to_20(self):
        assert self.bank.currency_value("B")["disk"] == pytest.approx(20.0)

    def test_rticket5_is_12(self):
        t = self.tickets["R-Ticket5"]
        assert self.bank.ticket_real_value(t.ticket_id)["disk"] == pytest.approx(12.0)

    def test_currency_C_gets_absolute_3(self):
        assert self.bank.currency_value("C")["disk"] == pytest.approx(3.0)

    def test_currency_D_gets_transitive_12(self):
        # D's value implicitly integrates resources from B's direct agreement
        # with A ("implicitly integrates ... its transitive agreement with A").
        assert self.bank.currency_value("D")["disk"] == pytest.approx(12.0)

    def test_agreement_system_capacities(self):
        system = self.bank.capacity_view("disk")
        caps = dict(zip(system.principals, system.capacities()))
        assert caps["A"] == pytest.approx(10.0)
        assert caps["B"] == pytest.approx(20.0)
        assert caps["C"] == pytest.approx(3.0)
        assert caps["D"] == pytest.approx(12.0)

    def test_flattened_S_matrix(self):
        system = self.bank.capacity_view("disk")
        iA, iB, iD = (system.index(p) for p in "ABD")
        assert system.S[iA, iB] == pytest.approx(0.5)
        assert system.S[iB, iD] == pytest.approx(0.6)


class TestExample2:
    @pytest.fixture(autouse=True)
    def _build(self):
        self.bank, self.tickets = build_example_2()

    def test_virtual_A1_is_3(self):
        assert self.bank.currency_value("A1")["disk"] == pytest.approx(3.0)

    def test_virtual_A2_is_5(self):
        assert self.bank.currency_value("A2")["disk"] == pytest.approx(5.0)

    def test_B_funded_via_A2(self):
        # R-Ticket8 carries 60% of A2 (value 5) = 3; B also owns 15.
        assert self.bank.currency_value("B")["disk"] == pytest.approx(18.0)

    def test_isolation_between_virtual_currencies(self):
        """Inflating A1 must not change anything routed through A2."""
        before_B = self.bank.currency_value("B")["disk"]
        before_D = self.bank.currency_value("D")["disk"]
        before_C = self.bank.currency_value("C")["disk"]
        self.bank.inflate_currency("A1", 3.0)
        after = self.bank.currency_values()
        assert after["B"]["disk"] == pytest.approx(before_B)
        assert after["D"]["disk"] == pytest.approx(before_D)
        # C *is* routed through A1 -> its share shrinks 3x.
        assert after["C"]["disk"] == pytest.approx(before_C / 3.0)

    def test_new_ticket_from_A1_leaves_A2_subset_alone(self):
        """Issuing another ticket from A1 affects only A1's beneficiaries.

        Per Example 1's arithmetic the denominator of a relative ticket is
        the issuing currency's *face value* (R-Ticket4 = 10 * 500/1000), so
        a new issue does not dilute existing tickets by itself; A inflates
        A1 to make room, and only the A1 subset (C, E) is repriced.
        """
        before = self.bank.currency_values()
        self.bank.create_currency("E")
        self.bank.issue_relative_ticket("A1", "E", 100)
        self.bank.inflate_currency("A1", 2.0)  # face 100 -> 200
        after = self.bank.currency_values()
        assert after["B"]["disk"] == pytest.approx(before["B"]["disk"])
        assert after["D"]["disk"] == pytest.approx(before["D"]["disk"])
        assert after["C"]["disk"] == pytest.approx(1.5)  # 100/200 of A1's 3
        assert after["E"]["disk"] == pytest.approx(1.5)

    def test_flattened_effective_shares(self):
        """A -> A2 -> B composes to 0.5 * 0.6 = 0.3 of A's resources."""
        system = self.bank.capacity_view("disk")
        iA, iB, iC, iD = (system.index(p) for p in "ABCD")
        assert system.S[iA, iB] == pytest.approx(0.3)
        assert system.S[iA, iC] == pytest.approx(0.3)  # A -> A1 -> C
        assert system.S[iA, iD] == pytest.approx(0.2)  # A -> A2 -> D (40%)

    def test_capacities_through_virtual_currencies(self):
        system = self.bank.capacity_view("disk")
        caps = dict(zip(system.principals, system.capacities()))
        assert caps["B"] == pytest.approx(18.0)
        assert caps["C"] == pytest.approx(3.0)
