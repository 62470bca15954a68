"""A small linear-programming substrate.

The paper enforces sharing agreements by solving a linear program
(Section 3.1, citing Gass's textbook).  This subpackage provides:

- :func:`~repro.lp.solver.solve` — the one entry point: it solves
  ``min c.x  s.t.  A_ub x <= b_ub,  A_eq x == b_eq,  bounds`` with
  ``backend="scipy"`` (:func:`scipy.optimize.linprog`'s HiGHS, imported only
  when it runs) or ``backend="simplex"``, and records the solve for
  observability;
- :func:`~repro.lp.simplex.solve_simplex` — a from-scratch dense
  bounded-variable primal simplex on those arrays, so the library's
  correctness does not hinge on a single solver (the two are cross-checked
  in the test suite);
- :class:`~repro.lp.model.LinearProgram` — a named-variable LP model builder
  with linear expressions and ``<=``/``==``/``>=`` constraints, solved as
  ``to_arrays()`` plus :func:`solve`;
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
from .simplex import solve_simplex
from .solver import BACKENDS, solve

__all__ = [
    "BACKENDS",
    "LinearProgram",
    "Constraint",
    "Variable",
    "LinExpr",
    "LPResult",
    "LPStatus",
    "solve",
    "solve_simplex",
]
