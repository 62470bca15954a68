"""Tests for the redirection policies."""

import numpy as np
import pytest

from repro.agreements import complete_structure, loop_structure
from repro.errors import SimulationError
from repro.proxysim import SimulationConfig, make_policy
from repro.proxysim.redirect import EndpointPolicy, LPPolicy


@pytest.fixture
def system():
    return complete_structure(4, share=0.2, capacity=1.0)


def avail(*values):
    return np.asarray(values, dtype=float)


class TestLPPolicy:
    def test_sheds_to_available_donors(self, system):
        policy = LPPolicy(system)
        take = policy.plan(0, 3.0, avail(0, 10, 10, 10))
        assert take.sum() == pytest.approx(3.0)
        assert take[0] == pytest.approx(0.0, abs=1e-9)

    def test_unplaceable_excess_stays_local(self, system):
        policy = LPPolicy(system)
        take = policy.plan(0, 50.0, avail(0, 10, 10, 10))
        assert take.sum() == pytest.approx(50.0)
        # donors bounded by agreements: ~0.2-ish of 10 each (+ transitive)
        assert take[0] > 40.0

    def test_level_restricts_donors(self):
        system = loop_structure(4, share=0.8, skip=1)
        policy = LPPolicy(system, level=1)
        take = policy.plan(0, 5.0, avail(0, 10, 10, 10))
        # at level 1 the only donor of isp0 is isp3
        assert take[3] > 0
        assert take[1] == pytest.approx(0.0, abs=1e-9)
        assert take[2] == pytest.approx(0.0, abs=1e-9)

    def test_bad_availability_shape(self, system):
        policy = LPPolicy(system)
        with pytest.raises(SimulationError):
            policy.plan(0, 1.0, avail(1, 2))


class TestEndpointPolicy:
    def test_blind_to_availability(self, system):
        rated = np.full(4, 100.0)
        policy = EndpointPolicy(system, rated)
        busy = policy.plan(0, 3.0, avail(0, 0, 0, 0))
        idle = policy.plan(0, 3.0, avail(0, 99, 99, 99))
        np.testing.assert_allclose(busy, idle)

    def test_proportional_to_agreement_quantity(self):
        system = complete_structure(3, share=0.1)
        rated = np.array([100.0, 100.0, 300.0])
        policy = EndpointPolicy(system, rated)
        take = policy.plan(0, 4.0, avail(0, 1, 1))
        # donor weights: 0.1*100 vs 0.1*300 -> 1:3 split
        assert take[2] == pytest.approx(3 * take[1])

    def test_rated_shape_checked(self, system):
        with pytest.raises(SimulationError):
            EndpointPolicy(system, np.ones(3))


class TestMakePolicy:
    def test_scheme_dispatch(self, system):
        cfg = SimulationConfig(n_proxies=4)
        assert make_policy(cfg.with_(scheme="none"), None) is None
        assert isinstance(make_policy(cfg.with_(scheme="lp"), system), LPPolicy)
        assert isinstance(
            make_policy(cfg.with_(scheme="endpoint"), system), EndpointPolicy
        )

    def test_lp_policy_inherits_config(self, system):
        cfg = SimulationConfig(n_proxies=4, level=2, allocator_backend="scipy")
        policy = make_policy(cfg, system)
        assert policy.level == 2

    def test_missing_system(self):
        cfg = SimulationConfig(n_proxies=4, scheme="lp")
        with pytest.raises(SimulationError):
            make_policy(cfg, None)
