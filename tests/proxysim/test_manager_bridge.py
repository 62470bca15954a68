"""Tests for running the simulation through the GRM/LRM protocol."""

import numpy as np
import pytest

from repro.agreements import complete_structure
from repro.proxysim import ProxySimulation, SimulationConfig
from repro.proxysim.manager_bridge import ManagerPolicy, bank_for_structure
from repro.proxysim.redirect import LPPolicy
from repro.workload import Request, Stream


@pytest.fixture
def system():
    return complete_structure(3, share=0.2)


class TestBankForStructure:
    def test_tickets_match_shares(self, system):
        bank = bank_for_structure(system)
        principals, _, S, _ = bank.to_agreement_system("general")
        assert principals == system.principals
        np.testing.assert_allclose(S, system.S, atol=1e-12)

    def test_no_base_deposits(self, system):
        bank = bank_for_structure(system)
        assert all(not t.is_base_capacity for t in bank.tickets)


class TestManagerPolicyPlans:
    def test_matches_lp_policy(self, system):
        avail = np.array([0.0, 50.0, 80.0])
        mp = ManagerPolicy(system)
        lp = LPPolicy(system)
        take_m = mp.plan(0, 10.0, avail.copy())
        take_l = lp.plan(0, 10.0, avail.copy())
        np.testing.assert_allclose(take_m, take_l, atol=1e-7)

    def test_matches_lp_policy_fig05_structure(self):
        """The manager path equals direct LP on the 10-proxy baseline."""
        fig05 = complete_structure(10, share=0.1)
        mp = ManagerPolicy(fig05)
        lp = LPPolicy(fig05)
        rng = np.random.default_rng(11)
        for _ in range(10):
            avail = rng.uniform(0.0, 100.0, size=10)
            req = int(rng.integers(0, 10))
            avail[req] = 0.0
            excess = float(rng.uniform(1.0, 20.0))
            np.testing.assert_allclose(
                mp.plan(req, excess, avail.copy()),
                lp.plan(req, excess, avail.copy()),
                atol=1e-7,
            )

    def test_denial_falls_back_to_partial(self, system):
        avail = np.array([0.0, 5.0, 5.0])
        mp = ManagerPolicy(system)
        take = mp.plan(0, 100.0, avail)
        assert take.sum() == pytest.approx(100.0)
        # the placeable part went remote, the rest stayed local
        assert take[1] + take[2] > 0
        assert take[0] > 90.0

    def test_message_counting(self, system):
        mp = ManagerPolicy(system)
        mp.plan(0, 1.0, np.array([0.0, 50.0, 80.0]))
        # one batched availability report + one request, regardless of n
        assert mp.messages == 2

    def test_level_respected(self):
        from repro.agreements import loop_structure

        loop = loop_structure(3, share=0.8, skip=1)
        mp = ManagerPolicy(loop, level=1)
        take = mp.plan(0, 5.0, np.array([0.0, 50.0, 50.0]))
        # level 1: only isp2 (donor of isp0) contributes
        assert take[1] == pytest.approx(0.0, abs=1e-9)
        assert take[2] > 0


class TestSimulationThroughManager:
    def test_end_to_end_run(self, system):
        burst = [Request(1_000.0 + i * 0.01, 3e6, 0) for i in range(40)]
        idle1 = [Request(40_000.0, 1_000.0, 1)]
        idle2 = [Request(40_000.0, 1_000.0, 2)]
        cfg = SimulationConfig(
            n_proxies=3, scheme="lp", epoch=60.0, threshold=5.0,
            warmup_days=0, measure_days=1, requests_per_day=100.0,
        )
        streams = [Stream.from_requests(rows) for rows in (burst, idle1, idle2)]
        sim = ProxySimulation(cfg, system, streams=streams)
        sim.policy = ManagerPolicy(system)  # swap in the manager path
        result = sim.run()
        assert result.total_redirected > 0
        assert result.total_requests == 42
        assert sim.policy.messages > 0

    def test_grants_released_across_epochs(self, system):
        """Each consultation returns the previous one's grant, so a
        many-epoch run leaves at most the last grant open."""
        streams = [[], [], [Request(40_000.0, 1_000.0, 2)]]
        for b in range(8):  # alternating bursts on proxies 0 and 1
            p = b % 2
            streams[p] += [Request(1_000.0 + b * 4_000.0 + i * 0.01, 3e6, p) for i in range(40)]
        cfg = SimulationConfig(
            n_proxies=3,
            scheme="lp",
            epoch=60.0,
            threshold=5.0,
            warmup_days=0,
            measure_days=1,
            requests_per_day=100.0,
        )
        sim = ProxySimulation(cfg, system, streams=[Stream.from_requests(s) for s in streams])
        policy = sim.policy = ManagerPolicy(system)
        result = sim.run()
        assert result.scheduler_consults >= 8
        assert policy.grm.requests_served >= 8
        assert policy.grm.open_grants() <= 1
        # a release and a batch + request per consultation after the first
        assert policy.messages == 3 * result.scheduler_consults - 1
