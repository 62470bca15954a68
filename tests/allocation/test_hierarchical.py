"""Tests for the multigrid hierarchical allocator (Section 3.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.agreements import AgreementTopology, CapacityView, hierarchical_structure
from repro.allocation import allocate_hierarchical, allocate_lp
from repro.allocation.hierarchical import coarsen
from repro.errors import AllocationError, InsufficientResourcesError
from repro.lp import BACKENDS


@pytest.fixture
def hier():
    return hierarchical_structure(
        3, 4, intra_share_total=0.6, inter_share=0.1, capacity=1.0
    )


class TestCoarsen:
    def test_group_capacities_sum(self, hier):
        coarse = coarsen(hier, hier.topology.groups)
        np.testing.assert_allclose(coarse.V, [4.0, 4.0, 4.0])

    def test_inter_group_shares(self, hier):
        coarse = coarsen(hier, hier.topology.groups)
        # Only leaders link groups: share 0.1, leader holds 1/4 of capacity.
        assert coarse.S[0, 1] == pytest.approx(0.1 * 1.0 / 4.0)
        assert coarse.S[0, 2] == pytest.approx(0.0)

    def test_intra_group_edges_dropped(self, hier):
        coarse = coarsen(hier, hier.topology.groups)
        assert not np.any(np.diag(coarse.S))

    def test_empty_group_handled(self, hier):
        groups = [list(range(12)), []]
        coarse = coarsen(hier, groups)
        assert coarse.V.tolist() == [12.0, 0.0]


class TestAllocate:
    def test_small_request_stays_in_group(self, hier):
        al = allocate_hierarchical(hier, "node0", 0.5)
        assert al.satisfied == pytest.approx(0.5)
        assert set(np.nonzero(al.take)[0]) <= set(hier.topology.groups[0])

    def test_group_spanning_request(self, hier):
        ask = 0.95 * hier.capacity_of("node0")  # C_A = 2.096
        for backend in BACKENDS:
            al = allocate_hierarchical(hier, "node0", ask, backend=backend)
            assert al.satisfied == pytest.approx(ask, rel=1e-6), backend
            outside = [i for i in np.nonzero(al.take)[0] if i not in hier.topology.groups[0]]
            assert outside, backend  # some contribution crossed group boundaries

    def test_conservation(self, hier):
        al = allocate_hierarchical(hier, "node5", 1.9)  # C_A = 1.949
        np.testing.assert_allclose(hier.V - al.take, al.new_V, atol=1e-9)

    def test_impossible_request_raises(self, hier):
        """Above ``C_A`` the multigrid raises quoting ``C_A``, or grants
        exactly ``C_A`` under ``partial=True``, as the flat LP does."""
        cap = hier.capacity_of("node0")  # 2.096
        for amount in (1000.0, 2.2):
            with pytest.raises(InsufficientResourcesError) as exc_info:
                allocate_hierarchical(hier, "node0", amount)
            assert exc_info.value.available == pytest.approx(cap)
            al = allocate_hierarchical(hier, "node0", amount, partial=True)
            assert al.satisfied == pytest.approx(cap)

    @pytest.mark.parametrize(
        "groups, match",
        [
            ([range(0, 4), range(4, 8), range(8, 13)], "outside"),
            ([range(0, 4), range(4, 8), range(7, 12)], "more than one group"),
            ([range(0, 4), range(4, 8), range(8, 11)], "no group"),
        ],
        ids=["out-of-range", "overlapping", "uncovered"],
    )
    def test_groups_must_partition(self, hier, groups, match):
        """An index outside ``0..n-1``, in two groups or in none is refused,
        by the allocator and by ``coarsen`` alike."""
        with pytest.raises(AllocationError, match=match):
            allocate_hierarchical(hier, "node0", 2.0, groups=groups)
        with pytest.raises(AllocationError, match=match):
            coarsen(hier, groups)

    def test_groups_required(self, hier):
        plain = CapacityView.from_matrices(hier.principals, hier.V, hier.S)
        with pytest.raises(AllocationError, match="group partition"):
            allocate_hierarchical(plain, "node0", 0.5)

    def test_explicit_groups_accepted(self, hier):
        plain = CapacityView.from_matrices(hier.principals, hier.V, hier.S)
        al = allocate_hierarchical(
            plain, "node0", 0.5, groups=hier.topology.groups
        )
        assert al.satisfied == pytest.approx(0.5)

    def test_unknown_principal(self, hier):
        with pytest.raises(Exception):
            allocate_hierarchical(hier, "ghost", 0.5)

    def test_comparable_to_flat_lp(self, hier):
        """Multigrid is a refinement heuristic: it must satisfy the same
        request the flat LP does, with theta in the same ballpark."""
        for backend in BACKENDS:
            flat = allocate_lp(hier, "node0", 1.5, backend=backend)
            multi = allocate_hierarchical(hier, "node0", 1.5, backend=backend)
            assert multi.satisfied == pytest.approx(flat.satisfied, rel=1e-6), backend
            assert multi.theta <= flat.theta * 5 + 0.5, backend

    def test_simplex_backend_reaches_every_lp(self, monkeypatch):
        """``backend="simplex"`` holds for the in-group refine too: with
        HiGHS unavailable, a group-spanning request still solves."""
        import scipy.optimize

        def no_highs(*args, **kwargs):
            raise AssertionError("HiGHS ran under backend='simplex'")

        monkeypatch.setattr(scipy.optimize, "linprog", no_highs)
        system = hierarchical_structure(3, 4, inter_share=0.2)
        ask = 0.95 * system.capacity_of("node0")
        al = allocate_hierarchical(
            system, "node0", ask, backend="simplex", partial=True
        )
        outside = [i for i in np.nonzero(al.take)[0] if i not in system.topology.groups[0]]
        assert outside  # the request crossed groups, so the refine ran
        assert al.satisfied > 0.0

    def test_deep_coarse_coefficients_stay_feasible(self):
        """A 6x8 hierarchy's coarse LP holds coefficients down to ~1e-8; a
        request near the requester's capacity makes every take sit at its
        bound.  The in-repo simplex once called that LP infeasible."""
        system = hierarchical_structure(6, 8, inter_share=0.2)
        ask = 0.95 * system.capacity_of("node0")
        plans = [
            allocate_hierarchical(system, "node0", ask, backend=backend, partial=True)
            for backend in BACKENDS
        ]
        assert plans[0].satisfied > 0.0
        assert plans[1].satisfied == pytest.approx(plans[0].satisfied, rel=1e-6)

    @pytest.mark.parametrize("groups, size", [(3, 4), (6, 8)])
    def test_one_coefficient_dp_per_group(self, groups, size):
        """One pass: each group's coefficient DP runs once, plus the coarse
        system's (the full system's DP is cached before the call)."""
        system = hierarchical_structure(groups, size)
        ask = 0.99 * system.capacity_of("node0")  # the full system's DP
        ob = obs.enable()
        try:
            allocate_hierarchical(system, "node0", ask, partial=True)
            dps = ob.registry.get_histogram("span.flow.coefficients").count
        finally:
            obs.disable()
        assert dps <= groups + 1


@st.composite
def hierarchies(draw):
    """2-6 groups of 2-8 with random capacities and shares: each group
    shares within itself, and one gateway member per group shares with the
    next group's gateway (a ring, so paths stay few)."""
    sizes = draw(st.lists(st.integers(2, 8), min_size=2, max_size=6))
    n = sum(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starts = np.cumsum([0, *sizes])
    groups = [range(lo, hi) for lo, hi in zip(starts[:-1], starts[1:])]
    S = np.zeros((n, n))
    for g in groups:
        block = rng.random((len(g), len(g)))
        np.fill_diagonal(block, 0.0)
        block *= rng.uniform(0.1, 0.9) / block.sum(axis=1, keepdims=True)
        S[g.start:g.stop, g.start:g.stop] = block
    gateways = [int(rng.choice(g)) for g in groups]
    for here, there in zip(gateways, gateways[1:] + gateways[:1]):
        S[here, there] = rng.uniform(0.02, 0.5)
        S[here] *= min(1.0, 1.0 / S[here].sum())
    names = [f"node{i}" for i in range(n)]
    V = rng.uniform(0.2, 2.0, n)
    return AgreementTopology(names, S, groups=groups).view(V)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        system=hierarchies(),
        pick=st.integers(0, 10**6),
        fraction=st.floats(0.05, 1.5),
        level=st.sampled_from([None, 1, 2]),
    )
    def test_takes_within_the_flat_bound(self, system, pick, fraction, level):
        """Every take stays within constraint (4)'s flat bound, the grant is
        ``min(x, C_A)``, and above ``C_A`` a strict request raises quoting
        ``C_A``."""
        a = pick % system.n
        principal = system.principals[a]
        cap = system.capacity_of(principal, level)
        x = fraction * cap
        bound = system.u(level)[:, a].copy()
        bound[a] = system.V[a]

        al = allocate_hierarchical(system, principal, x, level=level, partial=True)
        assert np.all(al.take <= bound + 1e-6)
        assert al.satisfied == pytest.approx(min(x, cap), rel=1e-6, abs=1e-9)
        assert al.take.sum() == pytest.approx(al.satisfied, rel=1e-6, abs=1e-9)
        if x > cap * (1 + 1e-6):
            with pytest.raises(InsufficientResourcesError) as exc_info:
                allocate_hierarchical(system, principal, x, level=level)
            assert exc_info.value.available == pytest.approx(cap)
