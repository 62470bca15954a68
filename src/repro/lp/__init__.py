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
- :class:`~repro.lp.result.LPResult` — solver-independent result type.

Every LP in the library is built as those arrays by its caller.  Typical
use, ``max x + y  s.t.  x + 2y <= 14,  3x - y >= 0,  x, y >= 0``::

    import numpy as np
    from repro.lp import solve

    c = np.array([-1.0, -1.0])                     # maximise by minimising -c.x
    A_ub = np.array([[1.0, 2.0], [-3.0, 1.0]])     # >= rows are negated
    b_ub = np.array([14.0, 0.0])
    no_rows = np.zeros((0, 2)), np.zeros(0)
    result = solve(c, A_ub, b_ub, *no_rows, [(0.0, None)] * 2)   # HiGHS
    result = solve(c, A_ub, b_ub, *no_rows, [(0.0, None)] * 2, backend="simplex")
    -result.objective, result.x                  # 14.0, [14.0, 0.0]
"""

from .result import LPResult, LPStatus
from .simplex import solve_simplex
from .solver import BACKENDS, solve

__all__ = [
    "BACKENDS",
    "LPResult",
    "LPStatus",
    "solve",
    "solve_simplex",
]
