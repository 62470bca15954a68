"""Tests for multi-resource vector requests and coupled binding (Section 3.2)."""

import pytest

from repro.allocation import MultiResourceRequest, allocate_multi
from repro.allocation.multiresource import expand_coupled_takes
from repro.economy import Bank
from repro.errors import AllocationError, InsufficientResourcesError
from repro.lp import BACKENDS
from repro.units import CoupledResource, ResourceVector


@pytest.fixture
def systems():
    """Two resource types with different agreement graphs, via a Bank."""
    bank = Bank()
    for p in ("a", "b"):
        bank.create_currency(p)
    bank.deposit_capacity("a", 10, "cpu")
    bank.deposit_capacity("a", 100, "disk")
    bank.deposit_capacity("b", 2, "cpu")
    bank.issue_relative_ticket("a", "b", 50)  # 50% of everything a has
    return {
        "cpu": bank.capacity_view("cpu"),
        "disk": bank.capacity_view("disk"),
    }


class TestVectorRequests:
    def test_one_lp_per_type(self, systems):
        req = MultiResourceRequest("b", ResourceVector(cpu=3.0, disk=20.0))
        for backend in BACKENDS:
            plans = allocate_multi(systems, req, backend=backend)
            assert set(plans) == {"cpu", "disk"}
            assert plans["cpu"].satisfied == pytest.approx(3.0)
            assert plans["disk"].satisfied == pytest.approx(20.0)

    def test_missing_system_raises(self, systems):
        req = MultiResourceRequest("b", ResourceVector(gpu=1.0))
        with pytest.raises(AllocationError, match="gpu"):
            allocate_multi(systems, req)

    def test_all_or_nothing(self, systems):
        """A shortfall on one type must fail before planning any type."""
        req = MultiResourceRequest("b", ResourceVector(cpu=100.0, disk=1.0))
        with pytest.raises(InsufficientResourcesError):
            allocate_multi(systems, req)

    def test_zero_entries_skipped(self, systems):
        req = MultiResourceRequest("b", ResourceVector(cpu=1.0, disk=0.0))
        plans = allocate_multi(systems, req)
        assert set(plans) == {"cpu"}

    def test_level_passes_through(self, systems):
        req = MultiResourceRequest("b", ResourceVector(cpu=3.0), level=1)
        plans = allocate_multi(systems, req)
        assert plans["cpu"].request.level == 1


class TestCoupledResources:
    def test_coupled_resource_validation(self):
        with pytest.raises(Exception):
            CoupledResource("empty", ResourceVector())

    def test_units_and_expand(self):
        slot = CoupledResource("slot", ResourceVector(cpu=2.0, mem=4.0))
        assert slot.units_from(ResourceVector(cpu=10.0, mem=12.0)) == pytest.approx(3.0)
        footprint = slot.expand(2.0)
        assert footprint["cpu"] == pytest.approx(4.0)
        assert footprint["mem"] == pytest.approx(8.0)

    def test_coupled_request_flow(self):
        """Bind cpu+mem into 'slot' units and allocate the bundle."""
        slot = CoupledResource("slot", ResourceVector(cpu=2.0, mem=4.0))
        bank = Bank()
        for p in ("a", "b"):
            bank.create_currency(p)
        # a has 10 slots' worth; shares 50% with b.
        bank.deposit_capacity("a", 10, "slot")
        bank.issue_relative_ticket("a", "b", 50)
        systems = {"slot": bank.capacity_view("slot")}
        req = MultiResourceRequest(
            "b", ResourceVector(slot=4.0), coupled=(slot,)
        )
        plans = allocate_multi(systems, req)
        assert plans["slot"].satisfied == pytest.approx(4.0)
        footprint = expand_coupled_takes(req, plans)
        assert footprint["a"]["cpu"] == pytest.approx(8.0)
        assert footprint["a"]["mem"] == pytest.approx(16.0)

    def test_expand_ignores_uncoupled_types(self, systems):
        req = MultiResourceRequest("b", ResourceVector(cpu=1.0))
        plans = allocate_multi(systems, req)
        assert expand_coupled_takes(req, plans) == {}
