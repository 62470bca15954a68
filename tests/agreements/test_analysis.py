"""Tests for the agreement-graph analysis utilities."""

import numpy as np
import pytest

from repro.agreements import CapacityView, complete_structure, loop_structure
from repro.agreements.analysis import (
    chain_contributions,
    dependency,
    donor_set,
    exposure,
    reachable_set,
    summarize,
)
from repro.economy import build_example_1


@pytest.fixture
def example1():
    bank, _ = build_example_1()
    return bank.capacity_view("disk")


class TestReachability:
    def test_example1_reachable_sets(self, example1):
        # D reaches B's resources directly and A's transitively.
        reach = reachable_set(example1, "D")
        assert reach["B"] == pytest.approx(9.0)  # 0.6 * 15
        assert reach["A"] == pytest.approx(3.0)  # 0.5 * 0.6 * 10
        assert "C" not in reach

    def test_level_one_cuts_chains(self, example1):
        reach = reachable_set(example1, "D", level=1)
        assert "A" not in reach
        assert reach["B"] == pytest.approx(9.0)

    def test_donor_set(self, example1):
        out = donor_set(example1, "A")
        assert set(out) == {"B", "C", "D"}
        assert out["B"] == pytest.approx(5.0)
        assert out["C"] == pytest.approx(3.0)  # absolute grant
        assert out["D"] == pytest.approx(3.0)  # chained A->B->D

    def test_loop_reach_grows_with_level(self):
        sys_ = loop_structure(6, 0.8, skip=1)
        assert len(reachable_set(sys_, "isp0", level=1)) == 1
        assert len(reachable_set(sys_, "isp0", level=3)) == 3


class TestExposureAndDependency:
    def test_exposure_of_owner(self, example1):
        # A has promised at most 50% (relative) + 3 absolute, clamped at V.
        assert 0.5 <= exposure(example1, "A") <= 1.0

    def test_exposure_zero_capacity(self, example1):
        assert exposure(example1, "D") == 0.0

    def test_dependency_extremes(self, example1):
        assert dependency(example1, "A") == pytest.approx(0.0)
        assert dependency(example1, "D") == pytest.approx(1.0)  # owns nothing
        assert 0.0 < dependency(example1, "B") < 1.0

    def test_dependency_complete(self):
        sys_ = complete_structure(5, 0.1)
        d = dependency(sys_, "isp0")
        C = sys_.capacity_of("isp0")
        assert d == pytest.approx(1.0 - 1.0 / C)


class TestChainContributions:
    def test_direct_vs_transitive_split(self, example1):
        chain = chain_contributions(example1, "A", "D")
        levels = dict(chain)
        assert 1 not in levels  # no direct A->D agreement
        assert levels[2] == pytest.approx(0.3)  # A->B->D = 0.5*0.6

    def test_exponential_decay_in_loops(self):
        sys_ = loop_structure(8, 0.5, skip=1)
        chain = chain_contributions(sys_, "isp0", "isp4")
        assert chain == [(4, pytest.approx(0.5**4))]

    def test_marginals_sum_to_closure(self):
        sys_ = complete_structure(6, 0.15)
        total = sum(m for _, m in chain_contributions(sys_, "isp0", "isp3"))
        assert total == pytest.approx(float(sys_.coefficients()[0, 3]))


class TestSummary:
    def test_complete_structure_summary(self):
        sys_ = complete_structure(10, 0.1)
        s = summarize(sys_)
        assert s.n == 10
        assert s.edges == 90
        assert s.density == pytest.approx(1.0)
        assert s.mean_share_out == pytest.approx(0.9)
        assert s.mean_capacity_gain > 1.5
        assert s.disconnected_principals == ()

    def test_disconnected_detection(self):
        S = np.zeros((3, 3))
        S[0, 1] = 0.5
        sys_ = CapacityView.from_matrices(["a", "b", "c"], np.ones(3), S)
        s = summarize(sys_)
        assert s.disconnected_principals == ("c",)
        assert s.edges == 1
