"""Tests for multiple views of one resource (the future-work extension)."""

import numpy as np
import pytest

from repro import sanitize
from repro.agreements import CapacityView
from repro.allocation.views import ViewSet, allocate_views
from repro.errors import AllocationError, InsufficientResourcesError


def make_viewset(read_share=0.5, write_share=0.2, base=(10.0, 10.0)):
    """Two principals; disk bandwidth viewed as read + write.

    ``p0`` shares read bandwidth generously and write bandwidth
    grudgingly — different terms over the same physical disk.
    """
    names = ["p0", "p1"]
    base = np.asarray(base, float)
    read = CapacityView.from_matrices(
        names, base.copy(), np.array([[0.0, read_share], [0.0, 0.0]])
    )
    write = CapacityView.from_matrices(
        names, base.copy(), np.array([[0.0, write_share], [0.0, 0.0]])
    )
    return ViewSet("disk-bw", {"read": read, "write": write}, base)


class TestViewSetValidation:
    def test_requires_views(self):
        with pytest.raises(AllocationError, match="no views"):
            ViewSet("x", {}, np.zeros(1))

    def test_principal_lists_must_match(self):
        a = CapacityView.from_matrices(["p0", "p1"], np.ones(2), np.zeros((2, 2)))
        b = CapacityView.from_matrices(["q0", "q1"], np.ones(2), np.zeros((2, 2)))
        with pytest.raises(AllocationError, match="principal list"):
            ViewSet("x", {"a": a, "b": b}, np.ones(2))

    def test_base_shape(self):
        a = CapacityView.from_matrices(["p0", "p1"], np.ones(2), np.zeros((2, 2)))
        with pytest.raises(AllocationError, match="length"):
            ViewSet("x", {"a": a}, np.ones(3))


class TestJointAllocation:
    def test_per_view_terms_respected(self):
        vs = make_viewset()
        plans = allocate_views(vs, "p1", {"read": 12.0, "write": 3.0})
        # read: p0 grants at most 0.5*10 = 5; write: at most 0.2*10 = 2.
        assert plans["read"].takes_by_name().get("p0", 0.0) <= 5.0 + 1e-9
        assert plans["write"].takes_by_name().get("p0", 0.0) <= 2.0 + 1e-9
        assert plans["read"].satisfied == pytest.approx(12.0)
        assert plans["write"].satisfied == pytest.approx(3.0)
        # p1's own disk serves both views but only once.
        local = sum(p.takes_by_name().get("p1", 0.0) for p in plans.values())
        assert local <= 10.0 + 1e-9

    def test_shared_base_capacity_binds(self):
        """Each view alone fits, but the one physical disk cannot serve both."""
        vs = make_viewset(read_share=0.5, write_share=0.5)
        # 10 + 8 = 18 <= 20 total base: feasible, every donor within base.
        plans = allocate_views(vs, "p1", {"read": 10.0, "write": 8.0})
        for donor in ("p0", "p1"):
            joint = sum(p.takes_by_name().get(donor, 0.0) for p in plans.values())
            assert joint <= 10.0 + 1e-9

        # read 12 and write 12 are EACH within p1's per-view capacity (15),
        # but 24 exceeds the 20 units of physical disk underneath.
        with pytest.raises(InsufficientResourcesError):
            allocate_views(vs, "p1", {"read": 12.0, "write": 12.0})

    def test_single_view_matches_lp_allocator(self):
        from repro.allocation import allocate_lp

        vs = make_viewset()
        plans = allocate_views(vs, "p1", {"read": 14.0})
        direct = allocate_lp(vs.systems["read"], "p1", 14.0)
        np.testing.assert_allclose(plans["read"].take, direct.take, atol=1e-8)

    def test_per_view_capacity_error(self):
        vs = make_viewset()
        with pytest.raises(InsufficientResourcesError) as exc:
            allocate_views(vs, "p1", {"write": 13.0})  # cap = 12
        assert exc.value.available == pytest.approx(12.0)

    def test_unknown_view(self):
        vs = make_viewset()
        with pytest.raises(AllocationError, match="unknown views"):
            allocate_views(vs, "p1", {"erase": 1.0})

    def test_empty_request(self):
        vs = make_viewset()
        assert allocate_views(vs, "p1", {"read": 0.0}) == {}

    def test_takes_sum_to_requests(self):
        vs = make_viewset()
        plans = allocate_views(vs, "p0", {"read": 6.0, "write": 3.0})
        assert plans["read"].satisfied == pytest.approx(6.0)
        assert plans["write"].satisfied == pytest.approx(3.0)


class TestEpilogue:
    def test_every_view_allocation_is_sanitized(self, sanitized, monkeypatch):
        checked = []
        real = sanitize.check_allocation

        def spy(C_before, allocation):
            checked.append(allocation)
            real(C_before, allocation)

        monkeypatch.setattr(sanitize, "check_allocation", spy)
        plans = allocate_views(make_viewset(), "p1", {"read": 12.0, "write": 3.0})
        assert len(checked) == len(plans) == 2
        assert {id(a) for a in checked} == {id(p) for p in plans.values()}

    def test_views_keep_the_joint_theta(self):
        plans = allocate_views(make_viewset(), "p1", {"read": 12.0, "write": 3.0})
        assert plans["read"].theta == plans["write"].theta
