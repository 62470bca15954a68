"""Tests for the structure generators (complete/loop/sparse/hierarchical/decay)."""

import numpy as np
import pytest

from repro.agreements import (
    complete_structure,
    distance_decay_structure,
    hierarchical_structure,
    loop_structure,
    reachable_set,
    sparse_structure,
)
from repro.errors import InvalidAgreementMatrixError


class TestComplete:
    def test_paper_configuration(self):
        """10 servers, each sharing 10% with every other (Figures 6-8, 12)."""
        sys_ = complete_structure(10, share=0.1)
        assert sys_.n == 10
        off_diag = sys_.S[~np.eye(10, dtype=bool)]
        np.testing.assert_allclose(off_diag, 0.1)
        np.testing.assert_allclose(sys_.S.sum(axis=1), 0.9)

    def test_oversharing_complete_clamped(self):
        sys_ = complete_structure(10, share=0.2)  # 9 * 0.2 = 1.8 > 1
        assert sys_.coefficients().max() == 1.0
        np.testing.assert_allclose(sys_.capacities(), 10.0)

    def test_custom_capacity_vector(self):
        sys_ = complete_structure(3, 0.1, capacity=[1.0, 2.0, 3.0])
        assert sys_.V.tolist() == [1.0, 2.0, 3.0]

    def test_symmetric_capacities(self):
        sys_ = complete_structure(5, 0.1)
        C = sys_.capacities()
        np.testing.assert_allclose(C, C[0])


class TestLoop:
    @pytest.mark.parametrize("skip", [1, 3, 7])
    def test_paper_loops(self, skip):
        """Figures 9-11: each ISP shares 80% with the skip-th next one."""
        sys_ = loop_structure(10, share=0.8, skip=skip)
        for i in range(10):
            row = sys_.S[i]
            assert row[(i + skip) % 10] == pytest.approx(0.8)
            assert np.count_nonzero(row) == 1

    def test_loop_topology(self):
        """A skip coprime with n (7 and 2 are) closes one cycle through every ISP."""
        one_cycle = loop_structure(7, 0.8, skip=2)
        for i in range(7):
            others = {f"isp{j}" for j in range(7) if j != i}
            assert set(reachable_set(one_cycle, f"isp{i}")) == others

    def test_non_coprime_skip_gives_disjoint_cycles(self):
        """A non-coprime skip splits the loop into disjoint cycles."""
        two_cycles = loop_structure(6, 0.8, skip=2)
        assert set(reachable_set(two_cycles, "isp0")) == {"isp2", "isp4"}
        assert set(reachable_set(two_cycles, "isp1")) == {"isp3", "isp5"}

    def test_level1_sees_one_donor(self):
        sys_ = loop_structure(10, 0.8, skip=1, capacity=1.0)
        C1 = sys_.capacities(1)
        np.testing.assert_allclose(C1, 1.8)

    def test_deeper_levels_reach_further(self):
        sys_ = loop_structure(10, 0.8, skip=1, capacity=1.0)
        C = [sys_.capacities(m)[0] for m in range(1, 10)]
        assert all(b > a for a, b in zip(C, C[1:]))
        # geometric accumulation: 1 + .8 + .64 + ...
        expected = 1 + sum(0.8 ** k for k in range(1, 10))
        assert C[-1] == pytest.approx(expected)

    def test_invalid_skip(self):
        with pytest.raises(InvalidAgreementMatrixError):
            loop_structure(10, 0.8, skip=0)
        with pytest.raises(InvalidAgreementMatrixError):
            loop_structure(10, 0.8, skip=10)


class TestSparse:
    def test_degree_respected(self):
        sys_ = sparse_structure(20, degree=3, share_total=0.3, seed=5)
        assert np.all((sys_.S > 0).sum(axis=1) == 3)
        np.testing.assert_allclose(sys_.S.sum(axis=1), 0.3)

    def test_deterministic_with_seed(self):
        a = sparse_structure(10, degree=2, seed=7)
        b = sparse_structure(10, degree=2, seed=7)
        np.testing.assert_array_equal(a.S, b.S)

    def test_entropy_seed_rejected(self):
        with pytest.raises(TypeError):
            sparse_structure(10, degree=2, seed=None)

    def test_zero_degree(self):
        sys_ = sparse_structure(5, degree=0)
        assert not np.any(sys_.S)

    def test_invalid_degree(self):
        with pytest.raises(InvalidAgreementMatrixError):
            sparse_structure(5, degree=5)


class TestHierarchical:
    def test_groups_attribute(self):
        sys_ = hierarchical_structure(3, 4)
        assert sys_.topology.groups == ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11))

    def test_intra_group_complete(self):
        sys_ = hierarchical_structure(2, 3, intra_share_total=0.6)
        # within group 0, each member shares 0.6/2 = 0.3 with each peer
        assert sys_.S[0, 1] == pytest.approx(0.3)
        assert sys_.S[1, 2] == pytest.approx(0.3)
        # no cross-group edges except leaders
        assert sys_.S[1, 4] == 0.0

    def test_leaders_link_groups(self):
        sys_ = hierarchical_structure(3, 2, inter_share=0.05)
        assert sys_.S[0, 2] == pytest.approx(0.05)
        assert sys_.S[2, 4] == pytest.approx(0.05)
        assert sys_.S[4, 0] == pytest.approx(0.05)

    def test_row_sums_valid(self):
        sys_ = hierarchical_structure(4, 5, intra_share_total=0.5, inter_share=0.1)
        assert np.all(sys_.S.sum(axis=1) <= 1.0 + 1e-12)

    def test_single_member_groups(self):
        sys_ = hierarchical_structure(3, 1, inter_share=0.2)
        assert sys_.n == 3
        assert sys_.S[0, 1] == pytest.approx(0.2)


class TestDistanceDecay:
    def test_paper_shares(self):
        """Figure 13: 20%/10%/5%/3% at circular distances 1/2/3/4+."""
        sys_ = distance_decay_structure(10)
        assert sys_.S[0, 1] == pytest.approx(0.20)
        assert sys_.S[0, 9] == pytest.approx(0.20)  # circular distance 1
        assert sys_.S[0, 2] == pytest.approx(0.10)
        assert sys_.S[0, 3] == pytest.approx(0.05)
        assert sys_.S[0, 4] == pytest.approx(0.03)
        assert sys_.S[0, 5] == pytest.approx(0.03)

    def test_row_sum_is_79_percent(self):
        sys_ = distance_decay_structure(10)
        np.testing.assert_allclose(sys_.S.sum(axis=1), 0.79)

    def test_symmetric(self):
        sys_ = distance_decay_structure(10)
        np.testing.assert_allclose(sys_.S, sys_.S.T)
