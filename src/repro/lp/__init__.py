"""A small linear-programming substrate.

The paper enforces sharing agreements by solving a linear program
(Section 3.1, citing Gass's textbook).  This subpackage provides:

- :func:`~repro.lp.solver.solve` — the one entry point: it solves
  ``min c.x  s.t.  A_ub x <= b_ub,  A_eq x == b_eq,  bounds`` with
  ``backend="simplex"`` (the default) or ``backend="scipy"``
  (:func:`scipy.optimize.linprog`'s HiGHS, imported only when a caller
  asks for it), and records the solve for observability;
- :func:`~repro.lp.simplex.solve_simplex` — a from-scratch dense
  bounded-variable primal simplex on those arrays: the default solver of
  every allocation LP, with HiGHS as its cross-check in the test suite;
- :class:`~repro.lp.result.LPResult` — solver-independent result type.

Every LP in the library is built as those arrays by its caller.  Typical
use, ``max x + y  s.t.  x + 2y <= 14,  3x - y >= 0,  x, y >= 0``::

    import numpy as np
    from repro.lp import solve

    c = np.array([-1.0, -1.0])                     # maximise by minimising -c.x
    A_ub = np.array([[1.0, 2.0], [-3.0, 1.0]])     # >= rows are negated
    b_ub = np.array([14.0, 0.0])
    no_rows = np.zeros((0, 2)), np.zeros(0)
    result = solve(c, A_ub, b_ub, *no_rows, [(0.0, None)] * 2)   # in-repo simplex
    result = solve(c, A_ub, b_ub, *no_rows, [(0.0, None)] * 2, backend="scipy")  # HiGHS
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
