"""Property-based invariants of the allocation engine.

Every LP property runs on both backends: the in-repo simplex, which every
path uses by default, and HiGHS, the tests' oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agreements import CapacityView
from repro.allocation import allocate_endpoint, allocate_lp
from repro.lp import BACKENDS


@st.composite
def systems_and_requests(draw):
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    S = rng.random((n, n)) * (0.95 / n)
    np.fill_diagonal(S, 0.0)
    V = rng.random(n) * 10
    system = CapacityView.from_matrices([f"p{i}" for i in range(n)], V, S)
    a = draw(st.integers(0, n - 1))
    frac = draw(st.floats(0.05, 0.95))
    x = frac * system.capacity_of(f"p{a}")
    return system, f"p{a}", float(x)


class TestLPInvariants:
    @given(systems_and_requests())
    @settings(max_examples=40, deadline=None)
    def test_conservation_and_bounds(self, sr):
        system, principal, x = sr
        a = system.index(principal)
        U = system.u(None)
        for backend in BACKENDS:
            plan = allocate_lp(system, principal, x, backend=backend)
            assert plan.take.sum() == pytest.approx(x, abs=1e-6), backend
            assert np.all(plan.take >= -1e-9), backend
            assert np.all(plan.take <= system.V + 1e-6), backend
            for k in range(system.n):
                bound = system.V[a] if k == a else min(U[k, a], system.V[k])
                assert plan.take[k] <= bound + 1e-6, backend

    @given(systems_and_requests())
    @settings(max_examples=40, deadline=None)
    def test_theta_is_true_max_drop(self, sr):
        system, principal, x = sr
        a = system.index(principal)
        for backend in BACKENDS:
            plan = allocate_lp(system, principal, x, backend=backend)
            drops = np.delete(system.capacities() - plan.new_C, a)
            observed = drops.max() if drops.size else 0.0
            assert plan.theta == pytest.approx(observed, abs=1e-6), backend

    @given(systems_and_requests())
    @settings(max_examples=30, deadline=None)
    def test_theta_monotone_in_request(self, sr):
        system, principal, x = sr
        for backend in BACKENDS:
            small = allocate_lp(system, principal, 0.5 * x, backend=backend)
            large = allocate_lp(system, principal, x, backend=backend)
            assert small.theta <= large.theta + 1e-6, backend

    @given(systems_and_requests())
    @settings(max_examples=30, deadline=None)
    def test_more_capacity_never_hurts(self, sr):
        system, principal, x = sr
        bigger = system.with_capacities(system.V * 1.5)
        assert bigger.capacity_of(principal) >= system.capacity_of(principal) - 1e-9
        for backend in BACKENDS:
            plan = allocate_lp(bigger, principal, x, backend=backend)
            assert plan.satisfied == pytest.approx(x, abs=1e-6), backend

    @given(systems_and_requests())
    @settings(max_examples=30, deadline=None)
    def test_level_monotone_capacity(self, sr):
        system, principal, _ = sr
        caps = [system.capacity_of(principal, level=m) for m in range(system.n)]
        assert all(b >= a - 1e-9 for a, b in zip(caps, caps[1:]))


class TestSchemeDominance:
    @given(systems_and_requests())
    @settings(max_examples=40, deadline=None)
    def test_lp_satisfies_at_least_endpoint(self, sr):
        """The endpoint scheme sees only direct agreements, so it can never
        place more than the transitive LP."""
        system, principal, x = sr
        ep = allocate_endpoint(system, principal, x, partial=True)
        for backend in BACKENDS:
            lp = allocate_lp(system, principal, x, partial=True, backend=backend)
            assert lp.satisfied >= ep.satisfied - 1e-6, backend

    @given(systems_and_requests())
    @settings(max_examples=30, deadline=None)
    def test_all_schemes_respect_donor_capacity(self, sr):
        system, principal, x = sr
        for plan in (
            *(allocate_lp(system, principal, x, partial=True, backend=b) for b in BACKENDS),
            allocate_endpoint(system, principal, x, partial=True),
        ):
            assert np.all(plan.take <= system.V + 1e-6), plan.scheme
            assert np.all(plan.new_V >= -1e-9), plan.scheme
