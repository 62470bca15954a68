"""Backend tests: scipy/HiGHS vs the from-scratch simplex.

The two backends must agree on status and optimum for every model; the
property test generates random LPs (feasible, infeasible and unbounded)
and holds the simplex to HiGHS as a differential oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.errors import LPError
from repro.lp import LPStatus, solve

from .arrays import lp_arrays

BACKENDS = ("scipy", "simplex")


def _both(problem):
    return {b: solve(*problem, backend=b) for b in BACKENDS}


class TestKnownOptima:
    def test_textbook_max(self):
        # max 3x + 4y st x+2y<=14, 3x-y>=0, x-y<=2  -> 34 at (6, 4)
        problem = lp_arrays(
            [-3, -4], ub=[([1, 2], 14), ([-3, 1], 0), ([1, -1], 2)]
        )
        for backend, res in _both(problem).items():
            assert res.ok, backend
            assert -res.objective == pytest.approx(34.0)
            assert res.x[0] == pytest.approx(6.0)
            assert res.x[1] == pytest.approx(4.0)

    def test_degenerate_feasibility_only(self):
        # 0 <= x <= 1, x >= 0.5, no objective
        problem = lp_arrays([0], ub=[([-1], -0.5)], bounds=[(0, 1)])
        for backend, res in _both(problem).items():
            assert res.ok, backend
            assert 0.5 - 1e-9 <= res.x[0] <= 1 + 1e-9

    def test_negative_lower_bounds(self):
        # min 2a + b st a + b == 3, a in [-5, 5], b in [0, 10]
        problem = lp_arrays([2, 1], eq=[([1, 1], 3)], bounds=[(-5, 5), (0, 10)])
        for backend, res in _both(problem).items():
            assert res.objective == pytest.approx(-2.0), backend
            assert res.x[0] == pytest.approx(-5.0)

    def test_free_variable(self):
        # min x st x >= -7, x free
        problem = lp_arrays([1], ub=[([-1], 7)], bounds=[(-np.inf, np.inf)])
        for backend, res in _both(problem).items():
            assert res.objective == pytest.approx(-7.0), backend

    def test_upper_bounded_only_variable(self):
        # max x, x <= 4
        problem = lp_arrays([-1], bounds=[(-np.inf, 4)])
        for backend, res in _both(problem).items():
            assert -res.objective == pytest.approx(4.0), backend

    def test_equality_system(self):
        # x + y = 10, x - y = 4 -> (7, 3)
        problem = lp_arrays([1, 0], eq=[([1, 1], 10), ([1, -1], 4)])
        for backend, res in _both(problem).items():
            assert res.x[0] == pytest.approx(7.0), backend
            assert res.x[1] == pytest.approx(3.0), backend


class TestStatuses:
    def test_infeasible(self):
        # min x st x >= 2, 0 <= x <= 1
        problem = lp_arrays([1], ub=[([-1], -2)], bounds=[(0, 1)])
        for backend, res in _both(problem).items():
            assert res.status is LPStatus.INFEASIBLE, backend
            assert not res.ok

    def test_unbounded(self):
        for backend, res in _both(lp_arrays([-1])).items():
            assert res.status is LPStatus.UNBOUNDED, backend

    def test_infeasible_equalities(self):
        problem = lp_arrays([1], eq=[([1], 1), ([1], 2)])
        for backend, res in _both(problem).items():
            assert res.status is LPStatus.INFEASIBLE, backend

    def test_redundant_equalities_ok(self):
        problem = lp_arrays([1, 0], eq=[([1, 1], 4), ([2, 2], 8)])  # redundant
        for backend, res in _both(problem).items():
            assert res.ok, backend
            assert res.x[0] == pytest.approx(0.0)

    def test_unknown_backend(self):
        with pytest.raises(LPError, match="unknown LP backend"):
            solve(*lp_arrays([0]), backend="cplex")


BOUND_KINDS = ("boxed", "lower", "upper", "free", "fixed")


@st.composite
def random_lp(draw):
    """Random LP over small integers with every bound kind and both row
    kinds; nothing rules out infeasible or unbounded instances, and the
    integer data keeps every status clear of solver tolerances."""
    n = draw(st.integers(1, 6))
    m_ub = draw(st.integers(0, 6))
    m_eq = draw(st.integers(0, min(2, 6 - m_ub)))
    small = st.integers(-3, 3)

    def matrix(rows, cols):
        cells = draw(st.lists(small, min_size=rows * cols, max_size=rows * cols))
        return np.array(cells, dtype=float).reshape(rows, cols)

    c = matrix(1, n)[0]
    A_ub, b_ub = matrix(m_ub, n), 4.0 * matrix(1, m_ub)[0]
    A_eq, b_eq = matrix(m_eq, n), matrix(1, m_eq)[0]
    bounds = []
    for _ in range(n):
        kind = draw(st.sampled_from(BOUND_KINDS))
        lo, width = draw(small), draw(st.integers(1, 4))
        bounds.append(
            {
                "boxed": (lo, lo + width),
                "lower": (lo, None),
                "upper": (None, lo),
                "free": (None, None),
                "fixed": (lo, lo),
            }[kind]
        )
    return c, A_ub, b_ub, A_eq, b_eq, bounds


class TestCrossValidation:
    @given(random_lp())
    @settings(max_examples=300, deadline=None)
    def test_backends_agree_on_optimum(self, problem):
        """Differential test of the simplex against HiGHS: same status, same
        optimum, and a feasible point.  HiGHS runs without presolve, which
        can report an unbounded LP as infeasible."""
        c, A_ub, b_ub, A_eq, b_eq, bounds = problem
        mine = solve(*problem, backend="simplex")
        ref = linprog(
            c,
            A_ub=A_ub if A_ub.size else None,
            b_ub=b_ub if b_ub.size else None,
            A_eq=A_eq if A_eq.size else None,
            b_eq=b_eq if b_eq.size else None,
            bounds=bounds,
            options={"presolve": False},
        )
        if ref.status == 4:  # "unbounded or infeasible"
            assert mine.status in (LPStatus.INFEASIBLE, LPStatus.UNBOUNDED)
            return
        status = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE, 3: LPStatus.UNBOUNDED}
        assert mine.status is status[ref.status]
        if not mine.ok:
            return
        assert abs(mine.objective - ref.fun) <= 1e-7 * max(1.0, abs(ref.fun))
        x = mine.x
        lo = np.array([-np.inf if lo is None else lo for lo, _ in bounds])
        hi = np.array([np.inf if hi is None else hi for _, hi in bounds])
        assert np.all(x >= lo - 1e-9) and np.all(x <= hi + 1e-9)
        assert np.all(A_ub @ x <= b_ub + 1e-9)
        assert np.all(np.abs(A_eq @ x - b_eq) <= 1e-9)
