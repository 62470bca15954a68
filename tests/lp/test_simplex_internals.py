"""Edge-case tests for the from-scratch bounded-variable simplex: every
bound kind (boxed / upper-only / free variables), redundant rows and
degenerate pivoting."""

import numpy as np
import pytest

from repro.errors import LPSolverError
from repro.lp import LPStatus, solve

from .arrays import lp_arrays

FREE = (-np.inf, np.inf)


class TestVariableTransforms:
    def test_shifted_variable(self):
        # x in [2, 5], minimise x -> 2
        res = solve(*lp_arrays([1], bounds=[(2.0, 5.0)]), backend="simplex")
        assert res.objective == pytest.approx(2.0)
        assert res.x[0] == pytest.approx(2.0)

    def test_reflected_variable(self):
        # x <= 4 with no lower bound, maximise x -> 4 (internally x = 4 - y)
        res = solve(*lp_arrays([-1], bounds=[(-np.inf, 4.0)]), backend="simplex")
        assert -res.objective == pytest.approx(4.0)

    def test_reflected_variable_in_constraint(self):
        # min y - x st x + y >= 3, x <= 10, y >= 0
        problem = lp_arrays(
            [-1, 1], ub=[([-1, -1], -3)], bounds=[(-np.inf, 10.0), (0.0, np.inf)]
        )
        res = solve(*problem, backend="simplex")
        assert res.ok
        assert res.x[0] == pytest.approx(10.0)
        assert res.objective == pytest.approx(-10.0)

    def test_split_free_variable_negative_optimum(self):
        # min x st -3 <= x <= 7 as rows, x free
        problem = lp_arrays([1], ub=[([-1], 3), ([1], 7)], bounds=[FREE])
        res = solve(*problem, backend="simplex")
        assert res.objective == pytest.approx(-3.0)

    def test_mixed_variable_kinds(self):
        # a in [1, 2] (shifted + ub row), b free (split), c <= 0 (reflected);
        # min a + b - c st a + b + c == 1
        problem = lp_arrays(
            [1, 1, -1],
            eq=[([1, 1, 1], 1.0)],
            bounds=[(1.0, 2.0), FREE, (-np.inf, 0.0)],
        )
        res = solve(*problem, backend="simplex")
        assert res.ok
        # feasibility of the returned point
        assert res.x.sum() == pytest.approx(1.0)
        # cross-check the optimum with scipy
        ref = solve(*problem, backend="scipy")
        assert res.objective == pytest.approx(ref.objective, abs=1e-8)


class TestDegenerateCases:
    def test_no_constraints_bounded(self):
        res = solve(*lp_arrays([1], bounds=[(0.0, 3.0)]), backend="simplex")
        assert res.objective == pytest.approx(0.0)

    def test_no_constraints_unbounded(self):
        assert solve(*lp_arrays([-1]), backend="simplex").status is LPStatus.UNBOUNDED

    def test_redundant_equality_rows(self):
        problem = lp_arrays([1, 0], eq=[([1, 1], 2), ([2, 2], 4), ([3, 3], 6)])
        res = solve(*problem, backend="simplex")
        assert res.ok
        assert res.x[0] == pytest.approx(0.0)
        assert res.x[1] == pytest.approx(2.0)

    def test_degenerate_vertex_no_cycling(self):
        # Classic degenerate LP; Bland's rule must terminate.
        problem = lp_arrays(
            [-0.75, 150, -0.02],
            ub=[
                ([0.5, -5.5, -2.5], 0),
                ([0.5, -1.5, -0.5], 0),
                ([1, 0, 0], 1),
                ([0, 0, 1], 1),
            ],
        )
        res = solve(*problem, backend="simplex")
        assert res.ok
        ref = solve(*problem, backend="scipy")
        assert res.objective == pytest.approx(ref.objective, abs=1e-6)

    def test_zero_rhs_equalities(self):
        # max x + y st x - y == 0, y <= 5
        problem = lp_arrays([-1, -1], eq=[([1, -1], 0)], bounds=[(0, np.inf), (0, 5)])
        res = solve(*problem, backend="simplex")
        assert -res.objective == pytest.approx(10.0)

    def test_iteration_limit(self):
        # min -sum x st sum x <= 100
        problem = lp_arrays([-1] * 6, ub=[([1] * 6, 100)])
        with pytest.raises(LPSolverError, match="exceeded"):
            solve(*problem, backend="simplex", max_iter=0)

    def test_equality_with_negative_rhs(self):
        problem = lp_arrays([1], eq=[([1], -4)], bounds=[(-10.0, np.inf)])
        res = solve(*problem, backend="simplex")
        assert res.ok
        assert res.x[0] == pytest.approx(-4.0)

    def test_round_off_pivot_solves_again(self, monkeypatch):
        """An allocation LP whose shares span fifteen orders of magnitude
        ends the updated-tableau pass on a singular basis; the solver
        starts again, refactoring at every pivot, and matches HiGHS."""
        from repro.agreements import CapacityView
        from repro.allocation import allocate_lp
        from repro.lp import simplex

        rng = np.random.default_rng(41)
        n = int(rng.integers(3, 9))
        S = 10.0 ** -rng.integers(0, 15, (n, n)) * (rng.random((n, n)) < 0.6) * (0.9 / n)
        np.fill_diagonal(S, 0.0)
        system = CapacityView.from_matrices([f"p{i}" for i in range(n)], rng.random(n) * 10, S)
        a = f"p{int(rng.integers(0, n))}"
        passes = []
        two_phase = simplex._two_phase

        def spy(*args):
            passes.append(args[-1])
            return two_phase(*args)

        monkeypatch.setattr(simplex, "_two_phase", spy)
        plan = allocate_lp(system, a, system.capacity_of(a), partial=True)
        assert passes == [False, True]
        ref = allocate_lp(system, a, system.capacity_of(a), partial=True, backend="scipy")
        assert plan.satisfied == pytest.approx(ref.satisfied, abs=1e-6)
        assert plan.theta == pytest.approx(ref.theta, abs=1e-6)

    def test_iterations_reported(self):
        # max x + 2y st x + y <= 6, x, y in [0, 4]
        problem = lp_arrays([-1, -2], ub=[([1, 1], 6)], bounds=[(0, 4), (0, 4)])
        res = solve(*problem, backend="simplex")
        assert res.ok
        assert res.iterations > 0
