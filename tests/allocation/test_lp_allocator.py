"""Tests for the Section-3.1 LP allocator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agreements import CapacityView, complete_structure, loop_structure
from repro.allocation import allocate_lp
from repro.errors import InsufficientResourcesError, LPError
from repro.lp import BACKENDS


def two_node(v0=10.0, v1=0.0, share=0.5):
    S = np.array([[0.0, share], [0.0, 0.0]])
    return CapacityView.from_matrices(["a", "b"], np.array([v0, v1]), S)


class TestFeasibility:
    def test_request_within_own_capacity(self):
        sys_ = two_node()
        al = allocate_lp(sys_, "a", 4.0)
        assert al.satisfied == pytest.approx(4.0)
        assert al.take.sum() == pytest.approx(4.0)
        assert al.local_take == pytest.approx(4.0)

    def test_request_uses_agreement(self):
        sys_ = two_node()
        al = allocate_lp(sys_, "b", 5.0)  # b owns nothing, can reach 5 of a
        assert al.satisfied == pytest.approx(5.0)
        assert al.takes_by_name() == {"a": pytest.approx(5.0)}

    def test_request_beyond_capacity_raises(self):
        sys_ = two_node()
        with pytest.raises(InsufficientResourcesError) as exc:
            allocate_lp(sys_, "b", 6.0)
        assert exc.value.requested == 6.0
        assert exc.value.available == pytest.approx(5.0)

    def test_partial_grants_capacity(self):
        sys_ = two_node()
        al = allocate_lp(sys_, "b", 6.0, partial=True)
        assert al.satisfied == pytest.approx(5.0)

    def test_zero_request(self):
        sys_ = two_node()
        al = allocate_lp(sys_, "a", 0.0)
        assert al.satisfied == 0.0
        assert not np.any(al.take)
        assert al.theta == 0.0

    @pytest.mark.parametrize("backend", ["scipy", "simplex"])
    @pytest.mark.parametrize("amount", [-1.0, float("nan")])
    def test_negative_request_rejected(self, amount, backend):
        with pytest.raises(ValueError, match="request amount must be >= 0"):
            allocate_lp(two_node(), "a", amount, backend=backend)

    def test_level_limits_reachable_capacity(self):
        # chain a -> b -> c, c requests: at level 1 only b's resources reach c.
        S = np.array([[0, 0.5, 0], [0, 0, 0.5], [0, 0, 0]], dtype=float)
        sys_ = CapacityView.from_matrices(["a", "b", "c"], np.array([8.0, 4.0, 0.0]), S)
        # level 1: c reaches 0.5*4 = 2 from b only
        al1 = allocate_lp(sys_, "c", 2.0, level=1)
        assert al1.takes_by_name() == {"b": pytest.approx(2.0)}
        with pytest.raises(InsufficientResourcesError):
            allocate_lp(sys_, "c", 3.0, level=1)
        # level 2: transitive a->b->c flow adds 8 * 0.25 = 2
        al2 = allocate_lp(sys_, "c", 4.0, level=2)
        assert al2.satisfied == pytest.approx(4.0)


class TestConstraints:
    def test_takes_respect_flow_bounds(self):
        sys_ = complete_structure(5, 0.1, capacity=2.0)
        U = sys_.u(None)
        a = sys_.index("isp0")
        for backend in BACKENDS:
            al = allocate_lp(sys_, "isp0", 2.5, backend=backend)
            for i in range(5):
                bound = sys_.V[a] if i == a else min(U[i, a], sys_.V[i])
                assert al.take[i] <= bound + 1e-9, backend

    def test_conservation(self):
        sys_ = complete_structure(5, 0.1, capacity=2.0)
        for backend in BACKENDS:
            al = allocate_lp(sys_, "isp0", 2.5, backend=backend)
            np.testing.assert_allclose(sys_.V - al.take, al.new_V, atol=1e-9)
            assert al.take.sum() == pytest.approx(2.5), backend

    def test_theta_matches_capacity_drops(self):
        sys_ = complete_structure(5, 0.1, capacity=2.0)
        a = sys_.index("isp0")
        for backend in BACKENDS:
            al = allocate_lp(sys_, "isp0", 2.5, backend=backend)
            drops = np.delete(sys_.capacities() - al.new_C, a)
            assert al.theta == pytest.approx(drops.max(), abs=1e-6), backend

    def test_local_take_free_when_nobody_depends_on_requester(self):
        """If no agreement draws on the requester's resources, serving
        locally perturbs nobody (theta = 0)."""
        S = np.array([[0.0, 0.0], [0.5, 0.0]])  # only b shares *with* a
        sys_ = CapacityView.from_matrices(["a", "b"], np.array([10.0, 4.0]), S)
        al = allocate_lp(sys_, "a", 10.0)
        assert al.local_take == pytest.approx(10.0)
        assert al.theta == pytest.approx(0.0, abs=1e-9)

    def test_local_take_perturbs_dependents(self):
        """In two_node, b's capacity is fed by a's agreement, so even a
        purely local allocation by a drops C_b — theta reflects that."""
        sys_ = two_node()
        al = allocate_lp(sys_, "a", 10.0)
        assert al.local_take == pytest.approx(10.0)
        assert al.theta == pytest.approx(5.0)  # C_b: 5 -> 0


class TestFormulationsAgree:
    def test_reduced_equals_faithful(self):
        sys_ = complete_structure(6, 0.15, capacity=1.5)
        for amount in (0.5, 2.0, 3.0):
            for backend in BACKENDS:
                r = allocate_lp(sys_, "isp2", amount, formulation="reduced", backend=backend)
                f = allocate_lp(sys_, "isp2", amount, formulation="faithful", backend=backend)
                assert r.theta == pytest.approx(f.theta, abs=1e-6), backend

    @given(
        st.integers(0, 5_000),
        st.booleans(),
        st.sampled_from(["scipy", "simplex"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_formulations_agree_property(self, seed, absolute, backend):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        S = rng.random((n, n)) * (0.9 / n)
        np.fill_diagonal(S, 0.0)
        V = rng.random(n) * 5
        A = None
        if absolute:
            A = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
            np.fill_diagonal(A, 0.0)
        sys_ = CapacityView.from_matrices([f"p{i}" for i in range(n)], V, S, A)
        a = int(rng.integers(0, n))
        cap = sys_.capacity_of(f"p{a}")
        x = float(rng.random() * cap)
        r = allocate_lp(sys_, f"p{a}", x, formulation="reduced", backend=backend)
        f = allocate_lp(sys_, f"p{a}", x, formulation="faithful", backend=backend)
        assert r.theta == pytest.approx(f.theta, abs=1e-6)
        assert r.satisfied == pytest.approx(f.satisfied)

    def test_backends_agree(self):
        sys_ = complete_structure(5, 0.1, capacity=1.5)
        a = allocate_lp(sys_, "isp1", 2.0, backend="scipy")
        b = allocate_lp(sys_, "isp1", 2.0, formulation="reduced",
                        backend="simplex")
        assert a.theta == pytest.approx(b.theta, abs=1e-6)

    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 2, None]))
    @settings(max_examples=60, deadline=None)
    def test_backends_agree_at_capacity(self, seed, level):
        """A request at or above the requester's capacity puts every take
        at its bound, the most degenerate allocation LP.  Shares spread over
        several orders of magnitude, as deep transitive chains make them."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        S = rng.random((n, n)) ** 6 * (0.95 / n)
        np.fill_diagonal(S, 0.0)
        V = rng.random(n) * 10 * (rng.random(n) < 0.8)
        sys_ = CapacityView.from_matrices([f"p{i}" for i in range(n)], V, S)
        a = int(rng.integers(0, n))
        x = sys_.capacity_of(f"p{a}", level) * rng.choice([1.0, 1.5])
        highs, simplex = (
            allocate_lp(sys_, f"p{a}", x, level=level, backend=b, partial=True)
            for b in ("scipy", "simplex")
        )
        assert simplex.satisfied == pytest.approx(highs.satisfied, abs=1e-6)
        assert simplex.theta == pytest.approx(highs.theta, abs=1e-6)

    # Arguments are validated before the zero-amount and over-capacity
    # shortcuts, so a bad name never yields an empty Allocation or an
    # InsufficientResourcesError.
    @pytest.mark.parametrize(
        "principal, amount, kwargs",
        [
            ("a", 1.0, {}),
            ("isp0", 0.0, {"backend": "gurobi"}),
            ("a", 1e6, {}),
        ],
        ids=["plain", "zero-amount", "over-capacity"],
    )
    def test_unknown_formulation(self, principal, amount, kwargs):
        system = complete_structure(4, 0.1) if principal == "isp0" else two_node()
        with pytest.raises(LPError, match="formulation"):
            allocate_lp(system, principal, amount, formulation="quantum", **kwargs)

    @pytest.mark.parametrize("amount", [1.0, 0.0], ids=["plain", "zero-amount"])
    def test_unknown_backend(self, amount):
        with pytest.raises(LPError, match="backend"):
            allocate_lp(two_node(), "a", amount, backend="gurobi")


class TestObjectiveVariants:
    def test_others_objective_prefers_local(self):
        """theta ranges over the other principals only, so the requester
        drains its own capacity before perturbing anyone else's."""
        sys_ = complete_structure(10, 0.1, capacity=1.0)
        for backend in BACKENDS:
            al = allocate_lp(sys_, "isp0", 1.5, backend=backend)
            assert al.local_take == pytest.approx(1.0), backend

    def test_theta_nonnegative_and_bounded(self):
        sys_ = loop_structure(8, 0.8, skip=3, capacity=2.0)
        for x in (0.5, 1.5, 3.0):
            for backend in BACKENDS:
                al = allocate_lp(sys_, "isp4", x, partial=True, backend=backend)
                assert 0.0 <= al.theta <= al.satisfied + 1e-6, backend
