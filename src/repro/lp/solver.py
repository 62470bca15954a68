"""The one entry point every linear program in the library is solved through.

:func:`solve` takes the array form
``min c.x  s.t.  A_ub x <= b_ub,  A_eq x == b_eq,  bounds`` and hands it to a
backend: ``"simplex"`` (:func:`~repro.lp.simplex.solve_simplex`, the
default) or ``"scipy"`` (:func:`scipy.optimize.linprog` with HiGHS, loaded
only when a caller names it, so no default path imports
:mod:`scipy.optimize`).  It alone opens the
``lp.solve`` span, maps the backend's status to :class:`LPStatus` and writes
``lp_backend`` / ``lp_status`` / ``lp_iterations`` to the allocation decision
in flight.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from ..errors import LPError, LPSolverError
from ..obs import get_observer
from ..obs.decision import current_decision
from .result import LPResult, LPStatus
from .simplex import solve_simplex

__all__ = ["BACKENDS", "solve"]


def _highs() -> Callable[..., Any]:
    # Loaded when solve() picks the backend, before it opens the span:
    # scipy.optimize costs ~50 MB and ~0.4 s to import, and only this
    # backend needs it.
    from scipy.optimize import linprog

    def run(c, A_ub, b_ub, A_eq, b_eq, bounds):
        return linprog(
            c,
            A_ub=A_ub if A_ub.size else None,
            b_ub=b_ub if b_ub.size else None,
            A_eq=A_eq if A_eq.size else None,
            b_eq=b_eq if b_eq.size else None,
            bounds=bounds,
            method="highs",
        )

    return run


#: backend name -> loader of the backend's solve function
_BACKENDS: dict[str, Callable[[], Callable[..., Any]]] = {
    "scipy": _highs, "simplex": lambda: solve_simplex,
}
BACKENDS = tuple(_BACKENDS)

# Both backends report linprog's status codes; 1 (iteration limit) and 4
# (numerical trouble) are solver failures.
_STATUS = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE, 3: LPStatus.UNBOUNDED}


def solve(
    c, A_ub, b_ub, A_eq, b_eq, bounds, *, backend: str = "simplex", model: str = "lp", **options
) -> LPResult:
    """Solve ``min c.x`` over the rows and per-variable ``(lower, upper)``
    ``bounds`` with ``backend`` (the in-repo simplex unless a caller asks
    for ``"scipy"``); ``options`` go to the backend (the simplex takes
    ``max_iter``).

    The ``A``/``b`` blocks are arrays and may have no rows.  Infeasible and
    unbounded outcomes are reported in the result; a solver failure raises
    :class:`~repro.errors.LPSolverError`.
    """
    try:
        load = _BACKENDS[backend]
    except KeyError:
        raise LPError(f"unknown LP backend {backend!r}; choose from {sorted(BACKENDS)}") from None
    run = load()
    obs = get_observer()
    with obs.span("lp.solve", backend=backend, model=model) as sp:
        res = run(c, A_ub, b_ub, A_eq, b_eq, bounds, **options)
        status = _STATUS.get(res.status, LPStatus.ERROR)
        iterations = int(res.nit)
        if obs.enabled:
            obs.counter("lp.solves", backend=backend)
            obs.histogram("lp.iterations", iterations, backend=backend)
            sp.set(status=status.value, iterations=iterations)
            dec = current_decision()
            if dec is not None:
                dec.set(lp_backend=backend, lp_status=status.value, lp_iterations=iterations)
        if status is LPStatus.ERROR:
            sp.set(message=str(res.message))
            obs.counter("lp.solver_errors", backend=backend)
            raise LPSolverError(f"{backend} solver failed on {model!r}: {res.message}")
    ok = status is LPStatus.OPTIMAL
    return LPResult(
        status=status,
        objective=float(res.fun) if ok else float("nan"),
        x=np.asarray(res.x) if ok else np.full(len(c), np.nan),
        backend=backend,
        iterations=iterations,
    )
