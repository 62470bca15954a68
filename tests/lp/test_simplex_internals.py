"""Edge-case tests for the from-scratch bounded-variable simplex: every
bound kind (boxed / upper-only / free variables), redundant rows and
degenerate pivoting."""

import numpy as np
import pytest

from repro.errors import LPSolverError
from repro.lp import LinearProgram, LPStatus


class TestVariableTransforms:
    def test_shifted_variable(self):
        # x in [2, 5], minimise x -> 2
        lp = LinearProgram()
        x = lp.variable("x", lower=2.0, upper=5.0)
        lp.minimize(x)
        res = lp.solve(backend="simplex")
        assert res.objective == pytest.approx(2.0)
        assert res.x[0] == pytest.approx(2.0)

    def test_reflected_variable(self):
        # x <= 4 with no lower bound, maximise x -> 4 (internally x = 4 - y)
        lp = LinearProgram()
        x = lp.variable("x", lower=-np.inf, upper=4.0)
        lp.maximize(x)
        res = lp.solve(backend="simplex")
        assert res.objective == pytest.approx(4.0)

    def test_reflected_variable_in_constraint(self):
        lp = LinearProgram()
        x = lp.variable("x", lower=-np.inf, upper=10.0)
        y = lp.variable("y")
        lp.add_constraint(x + y >= 3)
        lp.minimize(y - x)
        res = lp.solve(backend="simplex")
        assert res.ok
        assert res.x[0] == pytest.approx(10.0)
        assert res.objective == pytest.approx(-10.0)

    def test_split_free_variable_negative_optimum(self):
        lp = LinearProgram()
        x = lp.variable("x", lower=-np.inf)
        lp.add_constraint(x >= -3)
        lp.add_constraint(x <= 7)
        lp.minimize(x)
        res = lp.solve(backend="simplex")
        assert res.objective == pytest.approx(-3.0)

    def test_mixed_variable_kinds(self):
        lp = LinearProgram()
        a = lp.variable("a", lower=1.0, upper=2.0)  # shifted + ub row
        b = lp.variable("b", lower=-np.inf)  # split
        c = lp.variable("c", lower=-np.inf, upper=0.0)  # reflected
        lp.add_constraint(a + b + c == 1.0)
        lp.minimize(b - c + a)
        res = lp.solve(backend="simplex")
        assert res.ok
        # feasibility of the returned point
        assert res["a"] + res["b"] + res["c"] == pytest.approx(1.0)
        # cross-check the optimum with scipy
        ref = lp.solve(backend="scipy")
        assert res.objective == pytest.approx(ref.objective, abs=1e-8)


class TestDegenerateCases:
    def test_no_constraints_bounded(self):
        lp = LinearProgram()
        lp.variable("x", upper=3.0)
        lp.minimize(lp.get_variable("x"))
        res = lp.solve(backend="simplex")
        assert res.objective == pytest.approx(0.0)

    def test_no_constraints_unbounded(self):
        lp = LinearProgram()
        x = lp.variable("x")
        lp.minimize(-x)
        assert lp.solve(backend="simplex").status is LPStatus.UNBOUNDED

    def test_redundant_equality_rows(self):
        lp = LinearProgram()
        x, y = lp.variable("x"), lp.variable("y")
        lp.add_constraint(x + y == 2)
        lp.add_constraint(2 * x + 2 * y == 4)
        lp.add_constraint(3 * x + 3 * y == 6)
        lp.minimize(x)
        res = lp.solve(backend="simplex")
        assert res.ok
        assert res["x"] == pytest.approx(0.0)
        assert res["y"] == pytest.approx(2.0)

    def test_degenerate_vertex_no_cycling(self):
        # Classic degenerate LP; Bland's rule must terminate.
        lp = LinearProgram()
        x1, x2, x3 = (lp.variable(f"x{i}") for i in range(3))
        lp.add_constraint(0.5 * x1 - 5.5 * x2 - 2.5 * x3 <= 0)
        lp.add_constraint(0.5 * x1 - 1.5 * x2 - 0.5 * x3 <= 0)
        lp.add_constraint(x1 <= 1)
        lp.add_constraint(x3 <= 1)
        lp.minimize(-0.75 * x1 + 150 * x2 - 0.02 * x3)
        res = lp.solve(backend="simplex")
        assert res.ok
        ref = lp.solve(backend="scipy")
        assert res.objective == pytest.approx(ref.objective, abs=1e-6)

    def test_zero_rhs_equalities(self):
        lp = LinearProgram()
        x, y = lp.variable("x"), lp.variable("y", upper=5)
        lp.add_constraint(x - y == 0)
        lp.maximize(x + y)
        res = lp.solve(backend="simplex")
        assert res.objective == pytest.approx(10.0)

    def test_iteration_limit(self):
        lp = LinearProgram()
        xs = [lp.variable(f"x{i}") for i in range(6)]
        expr = xs[0] * 1.0
        for v in xs[1:]:
            expr = expr + v
        lp.add_constraint(expr <= 100)
        lp.minimize(-expr)
        with pytest.raises(LPSolverError, match="exceeded"):
            lp.solve(backend="simplex", max_iter=0)

    def test_equality_with_negative_rhs(self):
        lp = LinearProgram()
        x = lp.variable("x", lower=-10.0)
        lp.add_constraint(x == -4)
        lp.minimize(x)
        res = lp.solve(backend="simplex")
        assert res.ok
        assert res["x"] == pytest.approx(-4.0)

    def test_iterations_reported(self):
        lp = LinearProgram()
        x, y = lp.variable("x", upper=4), lp.variable("y", upper=4)
        lp.add_constraint(x + y <= 6)
        lp.maximize(x + 2 * y)
        res = lp.solve(backend="simplex")
        assert res.ok
        assert res.iterations > 0
