"""Cross-layer integration tests: economy -> agreements -> allocation ->
manager -> simulation, exercised together the way a deployment would."""

import numpy as np
import pytest

from repro.agreements import CapacityView
from repro.allocation import allocate_lp
from repro.economy import Bank
from repro.manager import (
    AllocationGrant,
    AllocationRequestMsg,
    GlobalResourceManager,
    InProcessTransport,
    LocalResourceManager,
)
from repro.proxysim import SimulationConfig, run_simulation
from repro.units import ResourceVector
from repro.workload import Request, Stream


class TestEconomyToAllocation:
    """Agreements written as tickets must enforce exactly as matrices."""

    def test_bank_and_matrix_allocations_agree(self):
        bank = Bank()
        for p in ("x", "y", "z"):
            bank.create_currency(p)
        bank.deposit_capacity("x", 10, "general")
        bank.deposit_capacity("y", 6, "general")
        bank.issue_relative_ticket("x", "z", 30)
        bank.issue_relative_ticket("y", "z", 50)

        from_bank = bank.capacity_view()
        S = np.array([[0, 0, 0.3], [0, 0, 0.5], [0, 0, 0]], dtype=float)
        direct = CapacityView.from_matrices(["x", "y", "z"], np.array([10.0, 6.0, 0.0]), S)

        a = allocate_lp(from_bank, "z", 5.0)
        b = allocate_lp(direct, "z", 5.0)
        np.testing.assert_allclose(a.take, b.take, atol=1e-9)
        assert a.theta == pytest.approx(b.theta)

    def test_revocation_propagates_to_enforcement(self):
        bank = Bank()
        bank.create_currency("owner")
        bank.create_currency("user")
        bank.deposit_capacity("owner", 10, "general")
        t = bank.issue_relative_ticket("owner", "user", 40)
        before = bank.capacity_view().capacity_of("user")
        bank.revoke_ticket(t.ticket_id)
        after = bank.capacity_view().capacity_of("user")
        assert before == pytest.approx(4.0)
        assert after == pytest.approx(0.0)

    def test_virtual_currency_agreements_enforceable(self):
        """Example-2-style routing must survive flattening + allocation."""
        from repro.economy import build_example_2

        bank, _ = build_example_2()
        system = bank.capacity_view("disk")
        plan = allocate_lp(system, "D", 1.5)  # D's 2 TB flows via A2
        assert plan.satisfied == pytest.approx(1.5)
        assert plan.takes_by_name() == {"A": pytest.approx(1.5)}


class TestManagerDrivesAllocation:
    def test_grant_equals_direct_allocation(self):
        transport = InProcessTransport()
        bank = Bank()
        grm = GlobalResourceManager("grm", bank)
        grm.attach(transport)
        caps = {"n0": 8.0, "n1": 3.0, "n2": 0.0}
        for name, cap in caps.items():
            grm.register_principal(name, ResourceVector(general=cap))
            lrm = LocalResourceManager(name, ResourceVector(general=cap))
            lrm.attach(transport)
            lrm.report()
        bank.issue_relative_ticket("n0", "n2", 50)
        bank.issue_relative_ticket("n1", "n2", 50)

        grant = transport.send(
            "grm", AllocationRequestMsg(sender="n2", principal="n2", amount=5.0)
        )
        assert isinstance(grant, AllocationGrant)

        system = bank.capacity_view()
        direct = allocate_lp(system, "n2", 5.0)
        assert grant.total == pytest.approx(direct.satisfied)
        assert grant.theta == pytest.approx(direct.theta, abs=1e-9)


class TestSimulationUsesEconomy:
    def test_simulation_from_bank_built_system(self):
        """Drive the proxy simulator with agreements expressed as tickets."""
        bank = Bank()
        for i in range(3):
            bank.create_currency(f"isp{i}")
        for i in range(3):
            for j in range(3):
                if i != j:
                    bank.issue_relative_ticket(f"isp{i}", f"isp{j}", 30)
        system = bank.capacity_view()
        # Capacities come from the simulator's availability, not the bank.
        burst = [Request(100.0 + 0.01 * i, 2e6, 0) for i in range(50)]
        quiet1 = [Request(30_000.0, 1000.0, 1)]
        quiet2 = [Request(30_000.0, 1000.0, 2)]
        cfg = SimulationConfig(
            n_proxies=3, scheme="lp", epoch=60.0, threshold=5.0,
            warmup_days=0, measure_days=1, requests_per_day=100.0,
        )
        streams = [Stream.from_requests(rows) for rows in (burst, quiet1, quiet2)]
        result = run_simulation(cfg, system, streams=streams)
        assert result.total_redirected > 0
        assert result.total_requests == 52


class TestEndToEndInvariants:
    def test_work_conservation_through_all_layers(self):
        """Total service time demanded == total service time delivered."""
        rng = np.random.default_rng(5)
        streams = []
        for origin in range(3):
            arrivals = np.sort(rng.uniform(0, 40_000, size=200))
            streams.append(
                Stream.from_requests(
                    [Request(float(t), float(rng.uniform(1e3, 1e6)), origin) for t in arrivals]
                )
            )
        from repro.agreements import complete_structure

        cfg = SimulationConfig(
            n_proxies=3, scheme="lp", epoch=120.0, threshold=5.0,
            warmup_days=0, measure_days=1, requests_per_day=100.0,
        )
        sim_system = complete_structure(3, 0.3)
        result = run_simulation(cfg, sim_system, streams=streams)
        assert result.total_requests == 600
