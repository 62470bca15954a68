"""Tests for the endpoint (Figure 13) baseline allocator."""

import numpy as np
import pytest

from repro.agreements import CapacityView, complete_structure, distance_decay_structure
from repro.allocation import allocate_endpoint, allocate_lp
from repro.errors import InsufficientResourcesError


class TestEndpoint:
    def test_local_first(self):
        sys_ = complete_structure(5, 0.1, capacity=2.0)
        al = allocate_endpoint(sys_, "isp0", 1.5)
        assert al.local_take == pytest.approx(1.5)
        assert al.scheme == "endpoint"

    def test_proportional_split(self):
        """Figure 13's rule: redirected work proportional to agreement size."""
        sys_ = distance_decay_structure(4, shares=(0.2, 0.1), capacity=1.0)
        al = allocate_endpoint(sys_, "isp0", 1.0 + 0.25)
        takes = al.take.copy()
        takes[0] = 0.0
        # weights: isp1 0.2, isp2 0.1, isp3 0.2 (circular distances 1,2,1)
        w = np.array([0.0, 0.2, 0.1, 0.2])
        expected = 0.25 * w / w.sum()
        np.testing.assert_allclose(takes, expected, atol=1e-9)

    def test_blind_to_availability(self):
        """The endpoint scheme keeps sending to a drained donor."""
        sys_ = distance_decay_structure(4, shares=(0.2, 0.1), capacity=1.0)
        drained = sys_.with_capacities(np.array([1.0, 0.0, 1.0, 1.0]))
        al = allocate_endpoint(drained, "isp0", 1.2)
        # weight of isp1 is S*V = 0.2*0 = 0 -> nothing lands there,
        # but the nominal variant (as used by EndpointPolicy) is capacity
        # blind; here V=0 so direct quantity is 0 as well.
        assert al.take[1] == pytest.approx(0.0)

    def test_cannot_use_transitive_chains(self):
        # a -> b -> c: c has no direct donors.
        S = np.array([[0, 0.5, 0], [0, 0, 0.5], [0, 0, 0]], dtype=float)
        sys_ = CapacityView.from_matrices(["a", "b", "c"], np.array([8.0, 0.0, 0.0]), S)
        al = allocate_endpoint(sys_, "c", 1.0)
        assert al.satisfied == pytest.approx(0.0)
        # The LP, by contrast, satisfies it through the chain.
        lp = allocate_lp(sys_, "c", 1.0)
        assert lp.satisfied == pytest.approx(1.0)

    def test_partial_false_raises(self):
        S = np.zeros((2, 2))
        sys_ = CapacityView.from_matrices(["a", "b"], np.array([1.0, 1.0]), S)
        with pytest.raises(InsufficientResourcesError):
            allocate_endpoint(sys_, "a", 2.0, partial=False)

    def test_caps_at_agreement_quantity(self):
        sys_ = complete_structure(3, 0.1, capacity=1.0)
        al = allocate_endpoint(sys_, "isp0", 3.0)
        # each donor grants at most 0.1 * 1.0
        assert al.take[1] <= 0.1 + 1e-9
        assert al.take[2] <= 0.1 + 1e-9
        assert al.satisfied == pytest.approx(1.2)
