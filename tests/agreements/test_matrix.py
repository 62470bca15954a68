"""Tests for building a CapacityView from matrices: validation and cached queries."""

import numpy as np
import pytest

from repro.agreements import CapacityView
from repro.economy import build_example_1
from repro.errors import InvalidAgreementMatrixError


def make(n=3, V=None, S=None):
    V = np.ones(n) if V is None else np.asarray(V, float)
    S = np.zeros((n, n)) if S is None else np.asarray(S, float)
    return CapacityView.from_matrices([f"p{i}" for i in range(n)], V, S)


class TestValidation:
    def test_valid_system(self):
        sys_ = make(3, S=[[0, 0.3, 0.2], [0.1, 0, 0], [0, 0, 0]])
        assert sys_.n == 3

    def test_duplicate_principals(self):
        with pytest.raises(InvalidAgreementMatrixError, match="unique"):
            CapacityView.from_matrices(["a", "a"], np.ones(2), np.zeros((2, 2)))

    def test_wrong_V_shape(self):
        with pytest.raises(InvalidAgreementMatrixError, match="V must"):
            CapacityView.from_matrices(["a", "b"], np.ones(3), np.zeros((2, 2)))

    def test_negative_V(self):
        with pytest.raises(InvalidAgreementMatrixError, match="non-negative"):
            make(2, V=[-1, 1])

    def test_wrong_S_shape(self):
        with pytest.raises(InvalidAgreementMatrixError, match="S must"):
            CapacityView.from_matrices(["a", "b"], np.ones(2), np.zeros((3, 3)))

    def test_nonzero_diagonal(self):
        with pytest.raises(InvalidAgreementMatrixError, match="diagonal"):
            make(2, S=[[0.5, 0], [0, 0]])

    def test_negative_share(self):
        with pytest.raises(InvalidAgreementMatrixError, match="non-negative"):
            make(2, S=[[0, -0.5], [0, 0]])

    def test_oversharing_allowed_with_overdraft(self):
        sys_ = make(3, S=[[0, 0.6, 0.6], [0, 0, 0], [0, 0, 0]])
        assert sys_.S.sum(axis=1)[0] == pytest.approx(1.2)
        assert sys_.coefficients().max() <= 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("matrix", ["S", "A", "V"])
    def test_non_finite_entry_rejected(self, matrix, bad):
        V, S, A = np.ones(2), np.zeros((2, 2)), np.zeros((2, 2))
        target = {"S": S, "A": A, "V": V}[matrix]
        target.flat[1] = bad  # an off-diagonal entry of S and A
        with pytest.raises(InvalidAgreementMatrixError, match="finite"):
            CapacityView.from_matrices(["a", "b"], V, S, A)

    def test_exactly_100_percent_ok(self):
        make(2, S=[[0, 1.0], [0, 0]])

    def test_negative_absolute_matrix(self):
        with pytest.raises(InvalidAgreementMatrixError):
            CapacityView.from_matrices(
                ["a", "b"], np.ones(2), np.zeros((2, 2)),
                A=np.array([[0, -1.0], [0, 0]]),
            )

    def test_absolute_diagonal_rejected(self):
        with pytest.raises(InvalidAgreementMatrixError):
            CapacityView.from_matrices(
                ["a", "b"], np.ones(2), np.zeros((2, 2)),
                A=np.array([[1.0, 0], [0, 0]]),
            )


class TestQueries:
    def test_index(self):
        sys_ = make(3)
        assert sys_.index("p1") == 1
        with pytest.raises(InvalidAgreementMatrixError):
            sys_.index("zzz")

    def test_coefficients_cached_per_level(self):
        sys_ = make(3, S=[[0, 0.3, 0], [0, 0, 0.3], [0, 0, 0]])
        T1 = sys_.coefficients(1)
        assert sys_.coefficients(1) is T1  # cache hit
        T2 = sys_.coefficients(2)
        assert T2[0, 2] > T1[0, 2]

    def test_capacity_of(self):
        sys_ = make(2, V=[10, 0], S=[[0, 0.5], [0, 0]])
        assert sys_.capacity_of("p1") == pytest.approx(5.0)
        assert sys_.capacity_of("p1", level=0) == pytest.approx(0.0)

    def test_with_capacities_shares_cache(self):
        sys_ = make(3, S=[[0, 0.3, 0], [0, 0, 0.3], [0, 0, 0]])
        T = sys_.coefficients()
        clone = sys_.with_capacities(np.array([5.0, 5.0, 5.0]))
        assert clone.coefficients() is T
        assert clone.V.tolist() == [5.0, 5.0, 5.0]
        # original untouched
        assert sys_.V.tolist() == [1.0, 1.0, 1.0]

    def test_overdraft_capacities_clamped(self):
        sys_ = make(3, V=[10, 0, 0], S=[[0, 0.6, 0.6], [0, 0, 1.0], [0, 0, 0]])
        # the paper's "10 instead of 12"
        np.testing.assert_allclose(sys_.capacities(), [10.0, 6.0, 10.0])

    def test_absolute_agreements_counted(self):
        sys_ = CapacityView.from_matrices(
            ["a", "b"], np.array([10.0, 0.0]), np.zeros((2, 2)),
            A=np.array([[0.0, 3.0], [0.0, 0.0]]),
        )
        assert sys_.capacity_of("b") == pytest.approx(3.0)

    def test_from_bank_roundtrip(self):
        bank, _ = build_example_1()
        sys_ = bank.capacity_view("disk")
        assert sys_.principals == ["A", "B", "C", "D"]
        assert sys_.capacity_of("D") == pytest.approx(12.0)

    def test_repr(self):
        assert "CapacityView" in repr(make(3))
