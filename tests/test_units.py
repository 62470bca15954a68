"""Tests for ResourceVector and CoupledResource."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.units import ZERO, CoupledResource, ResourceVector


class TestConstruction:
    def test_kwargs_and_mapping(self):
        a = ResourceVector(cpu=2.0, disk=10.0)
        b = ResourceVector({"cpu": 2.0, "disk": 10.0})
        assert a == b

    def test_missing_entries_zero(self):
        v = ResourceVector(cpu=1.0)
        assert v["disk"] == 0.0
        assert "disk" not in v

    def test_zeros_dropped(self):
        v = ResourceVector(cpu=0.0, disk=1.0)
        assert len(v) == 1
        assert v == ResourceVector(disk=1.0)

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            ResourceVector(cpu=-1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ReproError):
            ResourceVector(cpu=math.nan)
        with pytest.raises(ReproError):
            ResourceVector(cpu=math.inf)


class TestArithmetic:
    def test_addition_unions_types(self):
        v = ResourceVector(cpu=2.0) + ResourceVector(cpu=1.0, disk=5.0)
        assert v["cpu"] == 3.0 and v["disk"] == 5.0

    def test_subtraction_clamps_at_zero(self):
        v = ResourceVector(cpu=1.0) - ResourceVector(cpu=5.0)
        assert v["cpu"] == 0.0

    def test_scaling(self):
        v = 2 * ResourceVector(cpu=3.0)
        assert v["cpu"] == 6.0
        with pytest.raises(ReproError):
            ResourceVector(cpu=1.0) * -2

    def test_total(self):
        assert ResourceVector(cpu=2.0, disk=3.0).total == 5.0
        assert ZERO.total == 0.0


class TestComparison:
    def test_dominates(self):
        big = ResourceVector(cpu=2.0, disk=10.0)
        small = ResourceVector(cpu=1.0)
        assert big.dominates(small)
        assert not small.dominates(big)
        assert big.dominates(big)

    def test_is_zero(self):
        assert ZERO.is_zero()
        assert not ResourceVector(cpu=0.1).is_zero()

    def test_hashable(self):
        assert hash(ResourceVector(cpu=1.0)) == hash(ResourceVector(cpu=1.0))

    @pytest.mark.parametrize(
        "a, b",
        [
            (ResourceVector(cpu=1e-13), ResourceVector()),
            (ResourceVector(cpu=1.0000000005 - 1e-13), ResourceVector(cpu=1.0000000005 + 1e-13)),
        ],
        ids=["near-zero", "rounding-boundary"],
    )
    def test_equal_vectors_hash_equally(self, a, b):
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_scaled_to_fit(self):
        need = ResourceVector(cpu=4.0, mem=8.0)
        budget = ResourceVector(cpu=2.0, mem=100.0)
        assert need.scaled_to_fit(budget) == pytest.approx(0.5)
        assert need.scaled_to_fit(need) == pytest.approx(1.0)

    @given(st.dictionaries(st.sampled_from(["a", "b", "c"]),
                           st.floats(0, 1e6), max_size=3),
           st.dictionaries(st.sampled_from(["a", "b", "c"]),
                           st.floats(0, 1e6), max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_add_then_subtract_dominates_original(self, d1, d2):
        """(x + y) - y >= x componentwise (subtraction clamps)."""
        x, y = ResourceVector(d1), ResourceVector(d2)
        assert ((x + y) - y).dominates(x, tol=1e-6)


class TestCoupledResource:
    def test_requires_nonempty_ratio(self):
        with pytest.raises(ReproError):
            CoupledResource("x", ResourceVector())

    def test_units_from_bottleneck(self):
        slot = CoupledResource("slot", ResourceVector(cpu=2.0, mem=4.0))
        assert slot.units_from(ResourceVector(cpu=4.0, mem=100.0)) == 2.0
        assert slot.units_from(ResourceVector(cpu=100.0)) == 0.0

    def test_expand_roundtrip(self):
        slot = CoupledResource("slot", ResourceVector(cpu=2.0, mem=4.0))
        foot = slot.expand(3.0)
        assert slot.units_from(foot) == pytest.approx(3.0)
