"""Tests for the cost-aware allocator."""

import numpy as np
import pytest

from repro.agreements import complete_structure
from repro.allocation import allocate_lp
from repro.allocation.costaware import allocate_cost_aware
from repro.errors import InfeasibleAllocationError, InsufficientResourcesError


@pytest.fixture
def system():
    return complete_structure(4, share=0.2, capacity=2.0)


class TestCostObjective:
    def test_prefers_cheap_donors(self, system):
        # isp0 requests beyond its own V; donors isp1 (cheap) vs isp2/3 (dear)
        costs = [0.0, 1.0, 10.0, 10.0]
        plan = allocate_cost_aware(system, "isp0", 2.4, costs)
        assert plan.satisfied == pytest.approx(2.4)
        assert plan.take[1] > 0
        assert plan.take[2] == pytest.approx(0.0, abs=1e-9)
        assert plan.take[3] == pytest.approx(0.0, abs=1e-9)

    def test_free_local_used_first(self, system):
        costs = [0.0, 1.0, 1.0, 1.0]
        plan = allocate_cost_aware(system, "isp0", 1.5, costs)
        assert plan.local_take == pytest.approx(1.5)
        assert plan.cost == pytest.approx(0.0)

    def test_cost_reported(self, system):
        costs = [0.0, 2.0, 3.0, 4.0]
        plan = allocate_cost_aware(system, "isp0", 2.4, costs)
        expected = float(np.dot(costs, plan.take))
        assert plan.cost == pytest.approx(expected)

    def test_respects_flow_bounds(self, system):
        costs = [0.0, 0.0, 100.0, 100.0]
        plan = allocate_cost_aware(system, "isp0", 2.8, costs)
        U = system.u(None)
        # cheap donor capped by its agreement bound; overflow goes to others
        assert plan.take[1] <= min(U[1, 0], system.V[1]) + 1e-9
        assert plan.take[2] + plan.take[3] > 0

    def test_insufficient_raises(self, system):
        with pytest.raises(InsufficientResourcesError):
            allocate_cost_aware(system, "isp0", 100.0, np.zeros(4))

    def test_partial(self, system):
        plan = allocate_cost_aware(
            system, "isp0", 100.0, np.zeros(4), partial=True
        )
        assert plan.satisfied == pytest.approx(system.capacity_of("isp0"))

    def test_bad_cost_shape(self, system):
        with pytest.raises(InfeasibleAllocationError):
            allocate_cost_aware(system, "isp0", 1.0, [1.0, 2.0])

    def test_zero_request(self, system):
        plan = allocate_cost_aware(system, "isp0", 0.0, np.zeros(4))
        assert plan.satisfied == 0.0


class TestFairnessCap:
    def test_theta_cap_enforced(self, system):
        costs = [0.0, 1.0, 10.0, 10.0]
        uncapped = allocate_cost_aware(system, "isp0", 2.4, costs)
        # The tightest feasible cap is the perturbation LP's optimum.
        best_theta = allocate_lp(system, "isp0", 2.4).theta
        cap = best_theta * 1.05
        assert cap < uncapped.theta  # the cap actually binds here
        capped = allocate_cost_aware(
            system, "isp0", 2.4, costs, theta_cap=cap
        )
        assert capped.theta <= cap + 1e-6
        assert capped.cost >= uncapped.cost - 1e-9  # fairness costs money

    def test_impossible_cap(self, system):
        with pytest.raises(InfeasibleAllocationError):
            allocate_cost_aware(
                system, "isp0", 2.8, np.ones(4), theta_cap=1e-6
            )

    def test_lexicographic_matches_lp_theta(self, system):
        costs = [0.0, 1.0, 2.0, 3.0]
        lex = allocate_cost_aware(
            system, "isp0", 2.4, costs, lexicographic=True
        )
        base = allocate_lp(system, "isp0", 2.4)
        assert lex.theta <= base.theta + 1e-6
        # among least-perturbing plans, the cheap donor is preferred
        assert lex.take[1] >= lex.take[3] - 1e-9

    @pytest.mark.parametrize("backend", ["scipy", "simplex"])
    def test_lexicographic_at_large_capacities(self, backend):
        """The theta cap's slack is relative: at theta ~ 1e8 and above an
        absolute 1e-9 is below float resolution and the cost LP turns
        infeasible against its own perturbation optimum."""
        rng = np.random.default_rng(0)
        V = rng.uniform(0.1, 1.0, 8) * 1e9
        system = complete_structure(8, 0.1, capacity=V)
        costs = rng.uniform(0.0, 1.0, 8)
        for _ in range(20):
            p = system.principals[int(rng.integers(8))]
            x = float(rng.uniform(0.1, 1.0)) * system.capacity_of(p)
            lex = allocate_cost_aware(
                system, p, x, costs, lexicographic=True, backend=backend
            )
            base = allocate_lp(system, p, x, backend=backend)
            assert lex.satisfied == pytest.approx(x)
            assert lex.theta <= base.theta * (1 + 1e-6)
