"""Tests for the multigrid hierarchical allocator (Section 3.2)."""

import numpy as np
import pytest

import repro.obs as obs
from repro.agreements import CapacityView, hierarchical_structure
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
        for backend in BACKENDS:
            al = allocate_hierarchical(hier, "node0", 2.2, backend=backend)
            assert al.satisfied == pytest.approx(2.2, rel=1e-6), backend
            outside = [i for i in np.nonzero(al.take)[0] if i not in hier.topology.groups[0]]
            assert outside, backend  # some contribution crossed group boundaries

    def test_conservation(self, hier):
        al = allocate_hierarchical(hier, "node5", 2.0)
        np.testing.assert_allclose(hier.V - al.take, al.new_V, atol=1e-9)

    def test_impossible_request_raises(self, hier):
        with pytest.raises(InsufficientResourcesError):
            allocate_hierarchical(hier, "node0", 1000.0)

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
        """Each group's coefficient DP runs once per call: every round views
        the group at that round's capacities and adds only its coarse DP."""
        system = hierarchical_structure(groups, size)
        ask = 0.99 * system.capacity_of("node0")  # the full system's DP
        ob = obs.enable()
        try:
            allocate_hierarchical(system, "node0", ask, partial=True)
            dps = ob.registry.get_histogram("span.flow.coefficients").count
            rounds = ob.registry.get_histogram("allocation.hierarchical.rounds")
        finally:
            obs.disable()
        assert rounds.total >= 2  # the request needs more than one round
        assert dps <= groups + rounds.total
