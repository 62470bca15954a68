"""Property-based invariants of the allocation engine.

Every LP property runs on both backends: the in-repo simplex, which every
path uses by default, and HiGHS, the tests' oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agreements import (
    CapacityView,
    complete_structure,
    hierarchical_structure,
    loop_structure,
)
from repro.allocation import (
    MultiResourceRequest,
    allocate_endpoint,
    allocate_hierarchical,
    allocate_lp,
    allocate_multi,
)
from repro.allocation.problem import _agreement_bound
from repro.errors import InsufficientResourcesError
from repro.lp import BACKENDS
from repro.manager.grm import GlobalResourceManager
from repro.manager.messages import AllocationGrant, AllocationRequestMsg, AvailabilityBatch
from repro.manager.transport import InProcessTransport
from repro.proxysim.manager_bridge import bank_for_structure


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


@st.composite
def admission_cases(draw):
    """A complete, loop or hierarchical structure at random capacities, a
    requester, a level, and an ask just around its ``C_A``: ``C_A (1 +- d)``
    or ``C_A + eps`` with ``eps`` on both sides of the 1e-7 admission
    tolerance."""
    kind = draw(st.sampled_from(["complete", "loop", "hierarchical"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "complete":
        view = complete_structure(draw(st.integers(3, 7)), share=draw(st.floats(0.02, 0.3)))
    elif kind == "loop":
        view = loop_structure(draw(st.integers(3, 7)), share=draw(st.floats(0.2, 0.9)))
    else:
        view = hierarchical_structure(
            draw(st.integers(2, 3)), draw(st.integers(2, 4)),
            inter_share=draw(st.floats(0.02, 0.5)),
        )
    view = view.with_capacities(rng.uniform(0.2, 2.0, view.n))
    principal = view.principals[draw(st.integers(0, view.n - 1))]
    level = draw(st.sampled_from([1, 2, None]))
    cap = view.capacity_of(principal, level)
    if draw(st.booleans()):
        x = cap * (1 + draw(st.sampled_from([-1, 1])) * draw(st.sampled_from([1e-3, 0.05, 0.5])))
    else:
        x = cap + draw(st.sampled_from([5e-10, 5e-9, 5e-8, 2e-7]))
    return view, principal, level, x


def _grm_verdict(view, principal, level, x):
    """One GRM request for ``x`` over a bank holding ``view``'s agreements,
    after a batch reporting ``view.V``."""
    grm = GlobalResourceManager("grm", bank_for_structure(view))
    transport = InProcessTransport()
    grm.attach(transport)
    reports = tuple(zip(view.principals, view.V.tolist()))
    transport.send("grm", AvailabilityBatch(sender="lrm", reports=reports))
    return transport.send(
        "grm", AllocationRequestMsg(sender=principal, principal=principal, amount=x, level=level)
    )


class TestAdmission:
    @given(admission_cases())
    @settings(max_examples=80, deadline=None)
    def test_one_admission_rule(self, case):
        """``allocate_lp``, the multigrid, ``allocate_multi`` and the GRM admit
        the same asks: a strict ask raises, quoting ``C_A``, exactly when it
        exceeds ``C_A + 1e-7``; every grant is ``min(x, C_A)`` and no take
        exceeds its constraint-(4) bound."""
        view, principal, level, x = case
        cap = view.capacity_of(principal, level)
        bound = _agreement_bound(view, view.index(principal), level)
        groups = view.topology.groups or [range(view.n // 2), range(view.n // 2, view.n)]
        allocators = {
            "lp": lambda **kw: allocate_lp(view, principal, x, level=level, **kw),
            "hierarchical": lambda **kw: allocate_hierarchical(
                view, principal, x, groups=groups, level=level, **kw
            ),
            "multi": lambda: allocate_multi(
                {"cpu": view}, MultiResourceRequest(principal, {"cpu": x}, level)
            )["cpu"],
        }
        refused = x > cap + 1e-7
        for scheme, allocate in allocators.items():
            if refused:
                with pytest.raises(InsufficientResourcesError) as exc_info:
                    allocate()
                assert exc_info.value.available == cap, scheme
                continue
            grant = allocate()
            assert grant.satisfied == min(x, cap), scheme
            assert np.all(grant.take <= bound + 1e-9), scheme
        for scheme in ("lp", "hierarchical"):
            grant = allocators[scheme](partial=True)
            assert grant.satisfied == min(x, cap), scheme
            assert np.all(grant.take <= bound + 1e-9), scheme

        reply = _grm_verdict(view, principal, level, x)
        assert isinstance(reply, AllocationGrant) == (not refused)
        if refused:
            assert reply.available == pytest.approx(cap, rel=1e-12)
        else:
            assert reply.total == pytest.approx(min(x, cap), rel=1e-9, abs=1e-12)
            takes = dict(reply.takes)
            assert all(takes.get(p, 0.0) <= b + 1e-9 for p, b in zip(view.principals, bound))
