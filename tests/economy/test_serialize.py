"""Round-trip tests for bank / agreement-system serialisation."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.agreements import CapacityView, hierarchical_structure
from repro.economy import build_example_1, build_example_2
from repro.economy.serialize import (
    bank_from_dict,
    bank_to_dict,
    load_bank,
    load_system,
    save_bank,
    save_system,
    system_from_dict,
    system_to_dict,
)
from repro.errors import EconomyError

from .test_properties import economies


class TestBankRoundTrip:
    def test_example1_values_survive(self, tmp_path):
        bank, _ = build_example_1()
        restored = load_bank(save_bank(bank, tmp_path / "bank.json"))
        before = {k: dict(v) for k, v in bank.currency_values().items()}
        after = {k: dict(v) for k, v in restored.currency_values().items()}
        assert before == after

    def test_virtual_currencies_survive(self, tmp_path):
        bank, _ = build_example_2()
        restored = load_bank(save_bank(bank, tmp_path / "bank.json"))
        assert restored.currency("A1").virtual
        assert restored.currency("A1").owner == "A"
        assert restored.currency_value("A2")["disk"] == pytest.approx(5.0)

    def test_revocations_survive(self, tmp_path):
        bank, tickets = build_example_1()
        bank.revoke_ticket(tickets["R-Ticket5"].ticket_id)
        restored = load_bank(save_bank(bank, tmp_path / "bank.json"))
        assert restored.currency_value("D").is_zero()

    def test_ticket_names_survive(self):
        bank, _ = build_example_1()
        restored = bank_from_dict(bank_to_dict(bank))
        names = {t.name for t in restored.tickets}
        assert "R-Ticket4" in names

    def test_bad_format_rejected(self):
        with pytest.raises(EconomyError, match="format"):
            bank_from_dict({"format": "something-else"})

    @given(economies())
    @settings(max_examples=25, deadline=None)
    def test_random_economies_round_trip(self, bank):
        restored = bank_from_dict(bank_to_dict(bank))
        before = bank.currency_values()
        after = restored.currency_values()
        for name in before:
            assert after[name]["general"] == pytest.approx(
                before[name]["general"], abs=1e-9
            )


class TestSystemRoundTrip:
    def test_matrices_survive(self, tmp_path):
        bank, _ = build_example_1()
        system = bank.capacity_view("disk")
        restored = load_system(save_system(system, tmp_path / "sys.json"))
        assert restored.principals == system.principals
        np.testing.assert_allclose(restored.S, system.S)
        np.testing.assert_allclose(restored.V, system.V)
        np.testing.assert_allclose(restored.A, system.A)
        np.testing.assert_allclose(restored.capacities(), system.capacities())

    def test_groups_survive(self):
        system = hierarchical_structure(3, 4)
        restored = system_from_dict(system_to_dict(system))
        assert restored.topology.groups == system.topology.groups

    def test_overdraft_flag_survives(self):
        S = np.array([[0.0, 0.6, 0.6], [0, 0, 0], [0, 0, 0]])
        system = CapacityView.from_matrices(
            ["a", "b", "c"], np.ones(3), S, allow_overdraft=True
        )
        restored = system_from_dict(system_to_dict(system))
        assert restored.allow_overdraft

    def test_bad_format_rejected(self):
        with pytest.raises(EconomyError, match="format"):
            system_from_dict({"format": "nope"})
