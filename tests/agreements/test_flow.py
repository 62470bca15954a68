"""Tests for the transitive flow computation (T, I, K, U, C)."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.agreements import (
    AgreementTopology,
    CapacityView,
    complete_structure,
    hierarchical_structure,
    loop_structure,
    sparse_structure,
)
from repro.agreements.flow import (
    CoefficientPlan,
    _batches,
    _reach,
    transitive_coefficients,
)
from repro.errors import AgreementError

from .dfs_reference import coefficients_dfs
from .loop_reference import coefficients_loop

# The vectorised DP sums the same products as the loop reference in a
# different order; float64 rounding then differs by a few ulp per term.
LOOP_RTOL, LOOP_ATOL = 1e-12, 1e-15


def random_S(seed: int, n: int, density: float = 1.0, scale: float = 0.3):
    rng = np.random.default_rng(seed)
    S = rng.random((n, n)) * scale
    S *= rng.random((n, n)) < density
    np.fill_diagonal(S, 0.0)
    return S


class TestCoefficientsBasics:
    def test_level_zero_is_zero(self):
        S = random_S(0, 5)
        assert not np.any(transitive_coefficients(S, 0))

    def test_level_one_is_S(self):
        S = random_S(1, 6)
        np.testing.assert_allclose(transitive_coefficients(S, 1), S)

    def test_two_node_chain(self):
        # 0 -> 1 -> 2: T_02 at level 2 = S01*S12.
        S = np.zeros((3, 3))
        S[0, 1], S[1, 2] = 0.5, 0.4
        T1 = transitive_coefficients(S, 1)
        assert T1[0, 2] == 0.0
        T2 = transitive_coefficients(S, 2)
        assert T2[0, 2] == pytest.approx(0.2)
        assert T2[0, 1] == pytest.approx(0.5)

    def test_direct_plus_indirect_accumulate(self):
        # 0->2 direct and 0->1->2: both paths sum.
        S = np.zeros((3, 3))
        S[0, 2], S[0, 1], S[1, 2] = 0.1, 0.5, 0.4
        T = transitive_coefficients(S)
        assert T[0, 2] == pytest.approx(0.1 + 0.2)

    def test_cycle_does_not_blow_up(self):
        # 0->1->0 cycle: simple paths cannot revisit, so T stays finite
        # and equals the single-edge shares.
        S = np.zeros((2, 2))
        S[0, 1] = S[1, 0] = 0.9
        T = transitive_coefficients(S)
        np.testing.assert_allclose(T, S)

    def test_diagonal_always_zero(self):
        S = random_S(3, 7)
        for m in (1, 3, 6):
            assert not np.any(np.diag(transitive_coefficients(S, m)))

    def test_monotone_in_level(self):
        S = random_S(4, 7)
        prev = np.zeros((7, 7))
        for m in range(1, 7):
            T = transitive_coefficients(S, m)
            assert np.all(T >= prev - 1e-12)
            prev = T

    def test_levels_beyond_closure_add_nothing(self):
        S = random_S(5, 6)
        T_full = transitive_coefficients(S, 5)
        T_more = transitive_coefficients(S, 50)
        np.testing.assert_allclose(T_full, T_more)

    def test_none_means_full_closure(self):
        S = random_S(6, 6)
        np.testing.assert_allclose(
            transitive_coefficients(S), transitive_coefficients(S, 5)
        )

    def test_invalid_inputs(self):
        with pytest.raises(AgreementError):
            transitive_coefficients(np.zeros((2, 3)))
        with pytest.raises(AgreementError):
            transitive_coefficients(np.zeros((3, 3)), -1)


class TestMethodAgreement:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("level", [1, 2, None])
    def test_dp_matches_dfs_oracle(self, n, level):
        S = random_S(42 + n, n)
        T_dp = transitive_coefficients(S, level)
        T_dfs = coefficients_dfs(S, n - 1 if level is None else level)
        np.testing.assert_allclose(T_dp, T_dfs, atol=1e-12)

    @given(st.integers(0, 10_000), st.integers(2, 7))
    @settings(max_examples=30, deadline=None)
    def test_dp_matches_dfs_property(self, seed, n):
        S = random_S(seed, n, density=0.7)
        for m in (1, 2, n - 1):
            np.testing.assert_allclose(
                transitive_coefficients(S, m), coefficients_dfs(S, m), atol=1e-12
            )

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_dp_matches_dfs_on_paper_structures(self, data):
        """Every level of every structure family the paper names, plus
        random and overdraft (row sums above 1) ones, agrees with path
        enumeration."""
        S = data.draw(_structures())
        n = S.shape[0]
        for m in range(1, n):
            np.testing.assert_allclose(
                transitive_coefficients(S, m), coefficients_dfs(S, m), rtol=1e-12, atol=1e-12
            )

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_batched_sources_ending_at_different_depths(self, data):
        """Sources that share one batch but whose paths end at different
        depths (no out-edges, small disconnected components, level-limited
        runs, shares spanning three orders of magnitude) each get exactly
        their own path sums."""
        S, m = data.draw(_ragged_batch())
        n = S.shape[0]
        assert list(_batches(S, _reach(S != 0.0, m).sum(axis=1), m)) == [(0, n)]
        np.testing.assert_allclose(
            transitive_coefficients(S, m), coefficients_dfs(S, m), rtol=1e-12, atol=1e-15
        )


@st.composite
def _ragged_batch(draw):
    """An n <= 8 matrix split into disconnected components, with some
    sources sharing nothing, each row's shares on its own scale, and a
    level from 1 to the full closure."""
    n = draw(st.integers(2, 8))
    component = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    silent = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    density = draw(st.floats(0.3, 1.0))
    scale = 10.0 ** rng.integers(-3, 1, size=(n, 1))
    S = rng.random((n, n)) * scale * (rng.random((n, n)) < density)
    S *= component[:, None] == component[None, :]
    S[silent] = 0.0
    np.fill_diagonal(S, 0.0)
    return S, draw(st.integers(1, n - 1))


@st.composite
def _structures(draw):
    """Loop, sparse, hierarchical, random or overdraft agreement matrices,
    n <= 8."""
    kind = draw(
        st.sampled_from(["loop", "sparse", "hierarchical", "random", "overdraft"])
    )
    if kind == "hierarchical":
        groups = draw(st.integers(1, 4))
        size = draw(st.integers(1, 8 // groups))
        intra = draw(st.floats(0.1, 0.9))
        return hierarchical_structure(groups, size, intra_share_total=intra).S
    n = draw(st.integers(2, 8))
    if kind == "loop":
        skip = draw(st.integers(1, n - 1))
        return loop_structure(n, share=draw(st.floats(0.1, 1.0)), skip=skip).S
    if kind == "sparse":
        degree = draw(st.integers(0, n - 1))
        return sparse_structure(n, degree=degree, seed=draw(st.integers(0, 10_000))).S
    # on average a full random row shares 0.9 of its resources and an
    # overdraft one about 3x
    seed = draw(st.integers(0, 10_000))
    density = draw(st.floats(0.2, 1.0))
    scale = (1.8 if kind == "random" else 6.0) / (n - 1)
    return random_S(seed, n, density=density, scale=scale)


def _changed(S: np.ndarray, rng: np.random.Generator, change: str) -> np.ndarray:
    """``S`` after one kind of agreement change that adds no edge."""
    S = S.copy()
    if change == "revoke":
        S *= rng.random(S.shape) < 0.6
    elif change == "reissue":
        S = np.where(S != 0.0, S * rng.uniform(0.5, 1.5, S.shape), 0.0)
    else:  # inflating an issuer scales its row
        S *= rng.uniform(0.2, 2.0, (S.shape[0], 1))
    return S


class TestPlanReplay:
    """A plan recorded on one pattern, replayed on new shares within it,
    gives the full DP's ``T`` bit for bit."""

    @staticmethod
    def recorded(S, m):
        plan = CoefficientPlan()
        T = transitive_coefficients(S, m, plan=plan)
        assert plan.recorded
        # recording runs the full DP: it changes nothing in T
        assert T.tobytes() == transitive_coefficients(S, m).tobytes()
        return plan

    def assert_replays(self, plan, S, m):
        assert plan.covers(S, m)
        replayed = transitive_coefficients(S, m, plan=plan)
        assert replayed.tobytes() == transitive_coefficients(S, m).tobytes()

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_replay_after_changes_is_bit_identical(self, data):
        """The flow corpus (loop, sparse, hierarchical, random, overdraft
        and ragged one-batch structures, every level) after revokes,
        reissues at new shares and inflations."""
        if data.draw(st.booleans()):
            S = data.draw(_structures())
            assume(S.shape[0] > 1)  # one principal has no paths to record
            m = data.draw(st.integers(1, S.shape[0] - 1))
        else:
            S, m = data.draw(_ragged_batch())
        plan = self.recorded(S, m)
        rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
        for change in data.draw(
            st.lists(st.sampled_from(["revoke", "reissue", "inflate"]), min_size=1, max_size=4)
        ):
            self.assert_replays(plan, _changed(S, rng, change), m)

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    @pytest.mark.parametrize("level", [2, 4, None])
    def test_dense_random_every_change(self, n, level):
        m = n - 1 if level is None else level
        S = random_S(300 + n, n, density=0.5, scale=0.5)
        plan = CoefficientPlan()
        transitive_coefficients(S, m, plan=plan)
        if not plan.recorded:  # dense n >= 11 closures outgrow the budget
            assert level is None and n >= 11
            return
        rng = np.random.default_rng(n)
        for change in ("revoke", "reissue", "inflate"):
            self.assert_replays(plan, _changed(S, rng, change), m)

    def test_complete_plan_replays_sparser_patterns(self):
        S = complete_structure(10, share=0.1).S
        plan = self.recorded(S, 9)
        rng = np.random.default_rng(5)
        for density in (0.9, 0.5, 0.2, 0.05, 0.0):
            sparse = S * (rng.random(S.shape) < density) * rng.uniform(0.5, 1.5, S.shape)
            self.assert_replays(plan, sparse, 9)

    def test_loop_and_wide_level_limited_plans(self):
        for S, m in [
            (loop_structure(20, share=0.8, skip=1).S, 19),
            (loop_structure(20, share=0.8, skip=1).S, 3),
            # past 62 nodes the subset keys are Python ints
            (loop_structure(66, share=0.9, skip=1).S, 65),
            (sparse_structure(66, degree=2, seed=3).S, 3),
        ]:
            plan = self.recorded(S, m)
            self.assert_replays(plan, _changed(S, np.random.default_rng(1), "revoke"), m)

    def test_a_new_edge_is_not_covered(self):
        S = loop_structure(6, share=0.5, skip=1).S
        plan = self.recorded(S, 5)
        grown = S.copy()
        grown[0, 3] = 0.1
        assert not plan.covers(grown, 5)
        assert not plan.covers(S, 4)  # another level
        assert not plan.covers(np.zeros((7, 7)), 5)  # another size
        with pytest.raises(AgreementError, match="does not cover"):
            transitive_coefficients(grown, 5, plan=plan)

    def test_not_kept_past_the_state_budget(self):
        """A complete n = 11 closure makes 56,320 moves, past the
        budget of 2^15; recording keeps nothing and T is unchanged."""
        S = complete_structure(11, share=0.05).S
        plan = CoefficientPlan()
        T = transitive_coefficients(S, None, plan=plan)
        assert not plan.recorded
        assert T.tobytes() == transitive_coefficients(S, None).tobytes()

    def test_not_kept_when_a_product_can_underflow(self):
        """0 -> 1 -> 2 with shares of 1e-200: the two-hop product
        underflows to 0.0, so the DP drops that move.  A plan recorded
        from those values would miss it once a reissue makes it
        representable, so none is kept."""
        S = np.zeros((3, 3))
        S[0, 1] = S[1, 2] = 1e-200
        plan = CoefficientPlan()
        assert transitive_coefficients(S, 2, plan=plan)[0, 2] == 0.0
        assert not plan.recorded
        # the same pattern at representable shares records and replays
        S[0, 1] = S[1, 2] = 1e-100
        plan = self.recorded(S, 2)
        self.assert_replays(plan, S * 10.0, 2)

    def test_overflowing_replay_falls_back_to_the_full_dp(self):
        """Shares of 1e300 overflow a two-hop product to inf, and inf times
        a zero share is NaN, which the full DP keeps as a move the pattern
        does not allow.  A replay that comes out non-finite is redone in
        full, so the two still agree bit for bit."""
        S = np.zeros((4, 4))
        S[0, 1] = S[1, 2] = 0.5
        plan = self.recorded(S, 3)
        huge = S * 2e300
        with np.errstate(over="ignore", invalid="ignore"):
            full = transitive_coefficients(huge, 3)
            assert np.isnan(full[0, 3])  # reached through no edge at all
            self.assert_replays(plan, huge, 3)


class TestLoopReference:
    """The vectorised DP against the loop reference, where DFS is too slow."""

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_dense_random_full_closure(self, n):
        S = random_S(100 + n, n, scale=0.9 / (n - 1))
        np.testing.assert_allclose(
            transitive_coefficients(S, None),
            coefficients_loop(S, n - 1),
            rtol=LOOP_RTOL,
            atol=LOOP_ATOL,
        )

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    @pytest.mark.parametrize("level", [2, 4])
    def test_partial_density_levels(self, n, level):
        S = random_S(200 + n, n, density=0.5, scale=0.5)
        np.testing.assert_allclose(
            transitive_coefficients(S, level),
            coefficients_loop(S, level),
            rtol=LOOP_RTOL,
            atol=LOOP_ATOL,
        )

    @pytest.mark.parametrize(
        "S",
        [
            loop_structure(12, share=0.8, skip=1).S,
            loop_structure(12, share=0.8, skip=5).S,
            sparse_structure(12, degree=3, seed=4).S,
            hierarchical_structure(3, 4).S,
            complete_structure(10, share=0.5).S,
        ],
        ids=["loop-skip1", "loop-skip5", "sparse", "hierarchical", "overdraft"],
    )
    def test_structures_every_level(self, S):
        n = S.shape[0]
        for m in range(1, n):
            np.testing.assert_allclose(
                transitive_coefficients(S, m),
                coefficients_loop(S, m),
                rtol=LOOP_RTOL,
                atol=LOOP_ATOL,
            )


class TestDPCost:
    def test_level_limited_n20_stays_small(self):
        """n = 20 at level 3 must not allocate anything like a
        ``2^n x n`` table (168 MB); the DP keeps only short-path layers."""
        S = loop_structure(20, share=0.8, skip=1).S
        tracemalloc.start()
        try:
            start = time.perf_counter()
            T = transitive_coefficients(S, 3)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert elapsed < 1.0
        # each node reaches its next three along the loop
        assert T[0, 3] == pytest.approx(0.8**3)
        assert np.count_nonzero(T) == 20 * 3

    def test_retains_nothing_after_return(self):
        """A complete n = 14 closure builds ~2^13 subsets per source; none
        of that, nor any per-size index table, may outlive the call."""
        S = complete_structure(14, share=1 / 13).S
        transitive_coefficients(complete_structure(4, share=0.3).S, None)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            T = transitive_coefficients(S, None)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before - T.nbytes < 64 * 2**10
        assert peak - before > 2**20  # the layers were really built
        # each source is its own batch here; batching all 14 at once would
        # hold ~17 MB
        assert peak - before < 4 * 2**20

    def test_more_nodes_than_int64_mask_bits(self):
        """66 nodes within two hops of every source: subset masks no longer
        fit int64, yet level 2 is cheap and must stay exact."""
        n, share = 66, 0.01
        S = complete_structure(n, share=share).S
        T = transitive_coefficients(S, 2)
        off = T[~np.eye(n, dtype=bool)]
        # direct share plus one two-hop path through each other node
        np.testing.assert_allclose(off, share + (n - 2) * share**2, rtol=1e-12)

    def test_unreachable_targets_are_zero(self):
        # two disjoint cycles: nothing flows between them at any level
        S = loop_structure(8, share=0.5, skip=2).S
        T = transitive_coefficients(S, None)
        assert not np.any(T[0::2, 1::2]) and not np.any(T[1::2, 0::2])


class TestFlowAndCapacities:
    """``I``, ``K``, ``U`` and ``C`` as a topology derives them from ``V``."""

    @staticmethod
    def view(V, S, A=None):
        return CapacityView.from_matrices([f"p{i}" for i in range(len(V))], V, S, A)

    def test_flow_scales_by_capacity(self):
        S = random_S(8, 4)
        V = np.array([1.0, 2.0, 0.0, 5.0])
        view = self.view(V, S)
        # with no absolute grants the clamp at V never binds: U = I
        np.testing.assert_allclose(view.u(), V[:, None] * view.coefficients())

    def test_flow_shape_mismatch(self):
        topology = AgreementTopology([f"p{i}" for i in range(4)], np.zeros((4, 4)))
        with pytest.raises(AgreementError):
            topology.u(np.ones(3))

    def test_capacity_includes_own_resources(self):
        V = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(self.view(V, np.zeros((4, 4))).capacities(), V)

    def test_paper_overdraft_example(self):
        """Section 3.2: A=10, shares 60% with B and 60% with C; B shares
        100% with C.  Without the clamp C could reach 12; with K it is 10."""
        S = np.array([[0.0, 0.6, 0.6], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        V = np.array([10.0, 0.0, 0.0])
        T = transitive_coefficients(S)
        assert T[0, 2] == pytest.approx(0.6 + 0.6)  # unclamped: 1.2
        view = self.view(V, S)
        assert view.coefficients()[0, 2] == pytest.approx(1.0)
        assert view.capacities()[2] == pytest.approx(10.0)

    def test_u_clamps_at_donor_capacity(self):
        S = np.array([[0.0, 0.8], [0.0, 0.0]])  # I = 8
        A = np.array([[0.0, 5.0], [0.0, 0.0]])
        V = np.array([10.0, 0.0])
        U = self.view(V, S, A).u()
        assert U[0, 1] == pytest.approx(10.0)  # min(8 + 5, 10)

    def test_u_without_absolute_matrix(self):
        S = np.array([[0.0, 0.3], [0.1, 0.0]])
        V = np.array([10.0, 10.0])
        U = AgreementTopology(["p0", "p1"], S).u(V)
        np.testing.assert_allclose(U, [[0.0, 3.0], [1.0, 0.0]])

    def test_u_zero_diagonal(self):
        S = np.full((3, 3), 0.4)
        np.fill_diagonal(S, 0.0)
        A = np.full((3, 3), 2.0)
        np.fill_diagonal(A, 0.0)
        U = self.view(np.full(3, 10.0), S, A).u()
        assert not np.any(np.diag(U))

    @given(st.integers(0, 10_000), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_capacity_never_below_own_never_above_total(self, seed, n):
        """C_i >= V_i (own resources always available) and the sum of what
        anyone can reach never exceeds n * total raw capacity."""
        rng = np.random.default_rng(seed)
        S = random_S(seed, n, scale=1.0 / n)  # row sums <= 1
        V = rng.random(n) * 10
        C = self.view(V, S).capacities()
        assert np.all(C >= V - 1e-9)
        assert np.all(C <= V.sum() * n + 1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_capacity_with_clamp_bounded_by_total(self, seed):
        """With the U clamp, each principal's capacity is at most the total
        raw capacity in the system (each donor contributes at most V_k)."""
        n = 6
        rng = np.random.default_rng(seed)
        S = random_S(seed, n, scale=0.5)
        V = rng.random(n) * 10
        C = self.view(V, S).capacities()
        assert np.all(C <= V.sum() + 1e-9)
