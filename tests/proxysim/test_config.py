"""Tests for the simulation configuration and its presets."""

import pytest

from repro.errors import SimulationError
from repro.proxysim import ServiceModel, SimulationConfig


class TestServiceModel:
    def test_paper_parameters(self):
        """a=0.1 s, b=1e-6 s/byte, cap c=30 s."""
        m = ServiceModel()
        assert m.service_time(0) == pytest.approx(0.1)
        assert m.service_time(1_000_000) == pytest.approx(1.1)
        assert m.service_time(1e9) == pytest.approx(30.0)  # capped

    def test_cap_binds_exactly(self):
        m = ServiceModel(a=0.1, b=1e-6, c=30.0)
        huge = (30.0 - 0.1) / 1e-6
        assert m.service_time(huge) == pytest.approx(30.0)
        assert m.service_time(huge * 2) == pytest.approx(30.0)

    def test_validation(self):
        with pytest.raises(SimulationError):
            ServiceModel(a=-1)
        with pytest.raises(SimulationError):
            ServiceModel(c=0)


class TestConfig:
    def test_defaults_valid(self):
        cfg = SimulationConfig()
        assert cfg.n_proxies == 10
        assert cfg.horizon == 2 * 86_400.0

    def test_scheme_validation(self):
        with pytest.raises(SimulationError):
            SimulationConfig(scheme="telepathy")

    def test_capacity_scalar_and_vector(self):
        cfg = SimulationConfig(capacity=1.25)
        assert cfg.capacities().tolist() == [1.25] * 10
        cfg = SimulationConfig(n_proxies=2, capacity=(1.0, 2.0))
        assert cfg.capacities().tolist() == [1.0, 2.0]
        with pytest.raises(SimulationError):
            SimulationConfig(n_proxies=2, capacity=(1.0, 2.0, 3.0)).capacities()

    def test_with_returns_new_config(self):
        cfg = SimulationConfig()
        cfg2 = cfg.with_(gap=0.0)
        assert cfg2.gap == 0.0
        assert cfg.gap == 3_600.0

    def test_measure_window(self):
        cfg = SimulationConfig(warmup_days=2, measure_days=1)
        assert cfg.measure_start == 2 * 86_400.0
        assert cfg.horizon == 3 * 86_400.0

    def test_invalid_days(self):
        with pytest.raises(SimulationError):
            SimulationConfig(measure_days=0)


class TestPresets:
    def test_paper_preset_parameters(self):
        """Scale 1 is the paper's service model at 0.95 x its volume."""
        cfg = SimulationConfig.scaled(1.0)
        assert cfg.service.a == 0.1
        assert cfg.service.b == 1e-6
        assert cfg.service.c == 30.0
        assert cfg.requests_per_day == pytest.approx(0.95 * 500_000.0)

    def test_scaled_preserves_utilisation(self):
        """Every scale must offer the same load/capacity profile."""
        paper = SimulationConfig.scaled(1.0)
        for scale in (5.0, 25.0, 50.0):
            scaled = SimulationConfig.scaled(scale)
            assert scaled.mean_utilisation() == pytest.approx(
                paper.mean_utilisation(), rel=1e-6
            )

    def test_scaled_scales_service_times(self):
        scaled = SimulationConfig.scaled(25.0)
        assert scaled.service.a == pytest.approx(0.1 * 25)
        assert scaled.service.b == pytest.approx(1e-6 * 25)

    def test_scaled_overrides_win(self):
        cfg = SimulationConfig.scaled(25.0, threshold=99.0, scheme="none")
        assert cfg.threshold == 99.0
        assert cfg.scheme == "none"

    def test_bad_scale(self):
        with pytest.raises(SimulationError):
            SimulationConfig.scaled(0)

    def test_utilisation_in_overload_regime(self):
        """Paper and benchmark scales must put the diurnal peak above
        capacity (the regime in which Figure 5's waits arise)."""
        for cfg in (SimulationConfig.scaled(1.0), SimulationConfig.scaled()):
            profile = cfg.base_profile()
            peak_util = (
                profile.peak_rate * cfg.service.mean_service(cfg.sizes)
            )
            assert peak_util > 1.0
            assert cfg.mean_utilisation() < 1.0
