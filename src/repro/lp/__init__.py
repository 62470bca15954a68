"""A small linear-programming substrate.

The paper enforces sharing agreements by solving a linear program
(Section 3.1, citing Gass's textbook).  This subpackage provides:

- :class:`~repro.lp.model.LinearProgram` — a named-variable LP model builder
  with linear expressions and ``<=``/``==``/``>=`` constraints;
- :func:`~repro.lp.scipy_backend.solve_scipy` — a backend using
  :func:`scipy.optimize.linprog` (HiGHS);
- :func:`~repro.lp.simplex.solve_simplex` — a from-scratch dense two-phase
  primal simplex, so the library's correctness does not hinge on a single
  solver (the two are cross-checked in the test suite);
- :class:`~repro.lp.result.LPResult` — solver-independent result type.

Typical use::

    lp = LinearProgram("demo")
    x = lp.variable("x", lower=0.0)
    y = lp.variable("y", lower=0.0)
    lp.add_constraint(x + 2 * y <= 14, name="c1")
    lp.add_constraint(3 * x - y >= 0, name="c2")
    lp.minimize(-x - y)
    result = lp.solve()           # HiGHS by default
    result = lp.solve(backend="simplex")
"""

from .expr import LinExpr, Variable
from .model import Constraint, LinearProgram
from .result import LPResult, LPStatus
from .scipy_backend import solve_scipy
from .simplex import solve_simplex

__all__ = [
    "LinearProgram",
    "Constraint",
    "Variable",
    "LinExpr",
    "LPResult",
    "LPStatus",
    "solve_scipy",
    "solve_simplex",
]
