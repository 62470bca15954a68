"""Tests for the AgreementTopology / CapacityView split.

Covers the contracts of the split — immutability, structural hashing,
shared coefficient caches, per-view memoisation — plus a property test
that a view built with :meth:`CapacityView.from_matrices` matches
Section 3.2's algebra, written out in numpy over
``repro.agreements.flow``'s coefficients, on random agreement
structures.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agreements import AgreementTopology, CapacityView
from repro.agreements import flow
from repro.economy import Bank
from repro.errors import InvalidAgreementMatrixError

S3 = np.array([[0.0, 0.3, 0.2], [0.1, 0.0, 0.0], [0.0, 0.4, 0.0]])
A3 = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
V3 = np.array([10.0, 20.0, 30.0])
P3 = ["a", "b", "c"]


def topo(A=None):
    return AgreementTopology(P3, S3, A)


class TestImmutability:
    def test_matrices_frozen(self):
        t = topo(A=A3)
        for arr in (t.S, t.A):
            with pytest.raises(ValueError):
                arr[0, 1] = 99.0

    def test_source_arrays_not_aliased(self):
        S = S3.copy()
        t = AgreementTopology(P3, S)
        S[0, 1] = 0.9  # caller mutates their own copy
        assert t.S[0, 1] == pytest.approx(0.3)


def _bank():
    bank = Bank()
    for p, v in zip(P3, V3):
        bank.create_currency(p)
        bank.deposit_capacity(p, float(v))
    bank.issue_relative_ticket("a", "b", 30.0)
    bank.issue_relative_ticket("c", "b", 40.0)
    bank.issue_absolute_ticket("a", "c", 2.0)
    return bank


def _direct():
    view = CapacityView.from_matrices(P3, V3, S3, A3)
    return view.topology, view


def _through_bank():
    bank = _bank()
    return bank.topology(), bank.capacity_view()


#: one system built from matrices, one flattened from a bank through its
#: version-keyed topology cache
SOURCES = {"direct": _direct, "bank": _through_bank}

#: accessors whose arrays are cached and handed to every caller
SHARED = {
    "topology.S": lambda t, v: t.S,
    "topology.A": lambda t, v: t.A,
    "topology.coefficients()": lambda t, v: t.coefficients(),
    "topology.coefficients(1)": lambda t, v: t.coefficients(1),
    "view.V": lambda t, v: v.V,
    "view.S": lambda t, v: v.S,
    "view.A": lambda t, v: v.A,
    "view.u()": lambda t, v: v.u(),
    "view.u(1)": lambda t, v: v.u(1),
    "view.capacities()": lambda t, v: v.capacities(),
    "view.capacities(1)": lambda t, v: v.capacities(1),
    "view.coefficients()": lambda t, v: v.coefficients(),
    "view.coefficients(1)": lambda t, v: v.coefficients(1),
}

#: accessors that compute a new array on every call
FRESH = {
    "topology.u(V)": lambda t, v: t.u(v.V),
    "topology.capacities(V)": lambda t, v: t.capacities(v.V),
    "topology.u(V, 1)": lambda t, v: t.u(v.V, 1),
}


class TestCacheAliasing:
    """No caller can corrupt an array another caller shares: cached
    arrays are read-only, uncached ones are new on every call."""

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("accessor", SHARED)
    def test_shared_arrays_read_only(self, source, accessor):
        topology, view = SOURCES[source]()
        arr = SHARED[accessor](topology, view)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 99.0

    def test_bank_base_capacities_read_only(self):
        V = _bank().base_capacities()
        assert not V.flags.writeable
        with pytest.raises(ValueError):
            V[0] = 99.0

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("accessor", FRESH)
    def test_uncached_arrays_fresh(self, source, accessor):
        topology, view = SOURCES[source]()
        get = FRESH[accessor]
        first, second = get(topology, view), get(topology, view)
        assert first.flags.writeable
        assert not np.shares_memory(first, second)
        expected = second.copy()
        first.fill(-1.0)
        np.testing.assert_array_equal(get(topology, view), expected)


class TestIdentity:
    def test_equal_structures_hash_equal(self):
        t1, t2 = topo(A=A3), topo(A=A3)
        assert t1 is not t2
        assert t1 == t2
        assert hash(t1) == hash(t2)
        assert len({t1, t2}) == 1

    def test_different_S_not_equal(self):
        other = S3.copy()
        other[0, 1] = 0.5
        assert topo() != AgreementTopology(P3, other)

    def test_usable_as_dict_key(self):
        cache = {topo(): "cached"}
        assert cache[topo()] == "cached"


class TestValidation:
    def test_oversharing_clamped(self):
        """A row sum past 1 is Section 3.2's overdraft: legal, clamped."""
        S = np.array([[0.0, 0.7, 0.7], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        t = AgreementTopology(P3, S)
        assert flow.transitive_coefficients(S, 2)[0, 2] == pytest.approx(1.4)
        assert t.coefficients()[0, 2] == 1.0
        np.testing.assert_allclose(t.capacities(V3), [10.0, 27.0, 60.0])

    def test_bad_capacity_vector(self):
        t = topo()
        with pytest.raises(InvalidAgreementMatrixError, match="shape"):
            t.view(np.ones(4))
        with pytest.raises(InvalidAgreementMatrixError, match="non-negative"):
            t.view(np.array([1.0, -1.0, 1.0]))


class TestCaching:
    def test_coefficient_cache_shared_across_views(self):
        t = topo()
        v1, v2 = t.view(V3), t.view(V3 * 2)
        assert v1.coefficients(2) is v2.coefficients(2)

    def test_with_capacities_shares_topology(self):
        v1 = topo().view(V3)
        v2 = v1.with_capacities(V3 * 2)
        assert v2.topology is v1.topology

    def test_view_memoises_uc_per_level(self):
        v = topo(A=A3).view(V3)
        assert v.u(2) is v.u(2)
        assert v.capacities(2) is v.capacities(2)
        assert v.capacities(1) is not v.capacities(2)


class TestFromMatrices:
    def test_builds_a_fresh_topology(self):
        view = CapacityView.from_matrices(P3, V3, S3, A3)
        assert view.topology == topo(A=A3)
        np.testing.assert_allclose(view.capacities(), view.topology.capacities(V3))

    def test_groups_live_on_the_topology(self):
        t = AgreementTopology(P3, S3, groups=[[0, 1], [2]])
        assert t.groups == ((0, 1), (2,))
        assert t.view(V3).with_capacities(V3 * 2).topology.groups == t.groups
        assert t == topo()  # a partition annotates, it is not identity
        assert topo().groups is None


# -- property test: view == the algebra written out ---------------------------


@st.composite
def random_structures(draw):
    n = draw(st.integers(2, 5))
    fl = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
    S = np.array([[draw(fl) for _ in range(n)] for _ in range(n)], dtype=float)
    np.fill_diagonal(S, 0.0)
    # rows past 1 are overdrafts, which the view must clamp
    V = np.array([draw(st.floats(0.0, 100.0, allow_nan=False)) for _ in range(n)])
    if draw(st.booleans()):
        grant = st.floats(0.0, 10.0, allow_nan=False)
        A = np.array([[draw(grant) for _ in range(n)] for _ in range(n)])
        np.fill_diagonal(A, 0.0)
    else:
        A = None
    level = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    return n, S, V, A, level


@settings(max_examples=60, deadline=None)
@given(random_structures())
def test_view_matches_direct_flow_computation(structure):
    n, S, V, A, level = structure
    principals = [f"p{i}" for i in range(n)]
    sys_ = CapacityView.from_matrices(principals, V, S, A)

    # Section 3.2's algebra written out: K = min(T, 1),
    # U = min(V_k K_ki + A_ki, V_k) off the diagonal, C = V + sum_k U_ki
    m = n - 1 if level is None else min(level, n - 1)
    T = np.minimum(flow.transitive_coefficients(S, m), 1.0)
    U = np.minimum(V[:, None] * T + (0.0 if A is None else A), V[:, None])
    np.fill_diagonal(U, 0.0)
    C = V + U.sum(axis=0)

    np.testing.assert_allclose(sys_.coefficients(level), T, atol=1e-12)
    np.testing.assert_allclose(sys_.u(level), U, atol=1e-12)
    np.testing.assert_allclose(sys_.capacities(level), C, atol=1e-12)

    # and the topology's uncached path agrees with the view
    np.testing.assert_allclose(sys_.topology.capacities(V, level), C, atol=1e-12)
