"""Tests for dynamically changing agreements during a simulation run."""

import pytest

from repro.agreements import complete_structure
from repro.proxysim import ProxySimulation, SimulationConfig
from repro.proxysim.metrics import REDIRECTED
from repro.workload import Request, Stream


def overload_streams():
    """Proxy 0 gets two bursts (early and late); proxy 1 stays idle."""
    early = [Request(1_000.0 + i * 0.01, 3e6, 0) for i in range(40)]
    late = [Request(50_000.0 + i * 0.01, 3e6, 0) for i in range(40)]
    idle = [Request(80_000.0, 1_000.0, 1)]
    return [Stream.from_requests(early + late), Stream.from_requests(idle)]


def config(**overrides):
    defaults = dict(
        n_proxies=2, scheme="lp", epoch=60.0, threshold=5.0,
        warmup_days=0, measure_days=1, requests_per_day=100.0, seed=0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestSystemUpdates:
    def test_revocation_mid_run_stops_redirection(self):
        """Full sharing until noon, all agreements revoked after."""
        sharing = complete_structure(2, share=0.5)
        revoked = complete_structure(2, share=0.0)
        sim = ProxySimulation(
            config(), sharing,
            streams=overload_streams(),
            system_updates=[(30_000.0, revoked)],
        )
        result = sim.run()
        redirects = result.table()[:, :, REDIRECTED].sum(axis=0)
        early_slots = slice(0, int(30_000 / 600))
        late_slots = slice(int(30_000 / 600), 144)
        assert redirects[early_slots].sum() > 0, "sharing active before update"
        assert redirects[late_slots].sum() == 0, "revoked agreements enforce"

    def test_granting_mid_run_enables_redirection(self):
        none = complete_structure(2, share=0.0)
        sharing = complete_structure(2, share=0.5)
        sim = ProxySimulation(
            config(), none,
            streams=overload_streams(),
            system_updates=[(30_000.0, sharing)],
        )
        result = sim.run()
        redirects = result.table()[:, :, REDIRECTED].sum(axis=0)
        assert redirects[: int(30_000 / 600)].sum() == 0
        assert redirects[int(30_000 / 600) :].sum() > 0

    def test_updates_applied_in_time_order(self):
        a = complete_structure(2, share=0.5)
        b = complete_structure(2, share=0.0)
        sim = ProxySimulation(
            config(), a,
            streams=overload_streams(),
            system_updates=[(40_000.0, a), (20_000.0, b)],  # out of order
        )
        sim.run()
        assert sim.system is a  # the later update wins

    def test_wrong_size_update_rejected(self):
        sim = ProxySimulation(
            config(), complete_structure(2, share=0.5),
            streams=overload_streams(),
            system_updates=[(10.0, complete_structure(3, share=0.1))],
        )
        with pytest.raises(ValueError, match="principal count"):
            sim.run()

    def test_lp_solve_count_survives_updates(self):
        sharing = complete_structure(2, share=0.5)
        sim = ProxySimulation(
            config(), sharing,
            streams=overload_streams(),
            system_updates=[(30_000.0, sharing)],
        )
        result = sim.run()
        assert result.scheduler_consults > 0
