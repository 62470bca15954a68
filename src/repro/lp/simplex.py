"""A from-scratch dense bounded-variable primal simplex.

The paper cites Gass's *Linear Programming* textbook for its solver; this
module is the textbook bounded-variable method.  It works on the array form
every backend shares,

    min c.x   s.t.   A_ub x <= b_ub,   A_eq x == b_eq,   lo <= x <= hi,

as given: each row gets one logical variable (``[0, inf)`` on an inequality
row, ``[0, 0]`` on an equality row), a nonbasic variable sits at one of its
finite bounds (a free one at 0), and the ratio test stops a move at the first
bound reached, whether a basic variable's or the entering variable's own.
Phase 1 gives every row whose logical starts out of bounds an artificial and
minimises their sum; phase 2 fixes the artificials at 0 and minimises
``c.x``.  Bland's rule (the smallest eligible index enters, the smallest
basic index leaves on a tie) guarantees termination.

It is deliberately dense and simple (the allocation LPs here have at most a
few hundred variables) and exists so the library's results do not hinge on
one external solver; HiGHS is cross-checked against it in the tests.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["SimplexResult", "solve_simplex"]

_TOL = 1e-9  # pivot and reduced-cost tolerance
_FEAS_TOL = 1e-7  # phase-1 objective above which the LP is infeasible


class SimplexResult(NamedTuple):
    """Outcome in :func:`scipy.optimize.linprog`'s terms: ``status`` is 0
    (optimal), 1 (iteration limit), 2 (infeasible) or 3 (unbounded);
    ``nit`` counts pivots and bound flips."""

    status: int
    x: np.ndarray | None
    fun: float
    nit: int
    message: str


def solve_simplex(c, A_ub, b_ub, A_eq, b_eq, bounds, max_iter: int = 50_000) -> SimplexResult:
    """Minimise ``c.x`` over the rows and per-variable ``(lower, upper)``
    ``bounds`` (``None`` or an infinity for a missing side)."""
    c = np.asarray(c, dtype=float)
    n = len(c)
    A = np.vstack([np.reshape(A_ub, (-1, n)), np.reshape(A_eq, (-1, n))]).astype(float)
    b = np.concatenate([np.ravel(b_ub), np.ravel(b_eq)]).astype(float)
    m, m_ub = len(b), np.size(b_ub)
    bnd = np.array(bounds, dtype=float).reshape(n, 2)  # None -> nan
    lo_x = np.where(np.isnan(bnd[:, 0]), -np.inf, bnd[:, 0])
    hi_x = np.where(np.isnan(bnd[:, 1]), np.inf, bnd[:, 1])

    # Start every structural at a finite bound; each row's logical takes up
    # the residual, and a row whose logical would leave its bounds gets an
    # artificial carrying |residual| instead.
    x0 = np.where(np.isfinite(lo_x), lo_x, np.where(np.isfinite(hi_x), hi_x, 0.0))
    residual = b - A @ x0
    eq_row = np.arange(m) >= m_ub
    short = np.flatnonzero(np.where(eq_row, residual != 0.0, residual < 0.0))
    sign = np.sign(residual[short])
    k = len(short)
    N = n + m + k

    T = np.zeros((m, N))  # B^-1 [A | I | artificial columns]; B is diagonal +-1 here
    T[:, :n] = A
    T[:, n : n + m] = np.eye(m)
    T[short, n + m + np.arange(k)] = sign
    T[short] *= sign[:, None]
    lo = np.concatenate([lo_x, np.zeros(m + k)])
    hi = np.concatenate([hi_x, np.where(eq_row, 0.0, np.inf), np.full(k, np.inf)])
    x = np.concatenate([x0, residual, np.abs(residual[short])])
    x[n + short] = 0.0
    basis = n + np.arange(m)
    basis[short] = n + m + np.arange(k)

    cost = np.zeros(N)
    cost[n + m :] = 1.0
    status, nit = _iterate(T, basis, x, lo, hi, cost, 0, max_iter)
    if status == 0:
        if x[n + m :].sum() > _FEAS_TOL:
            return SimplexResult(2, None, np.nan, nit, "infeasible")
        # Phase 2: artificials are fixed at 0, so none can re-enter and a
        # basic one (left on a redundant row) blocks any move that would
        # change it.
        hi[n + m :] = 0.0
        cost[:] = 0.0
        cost[:n] = c
        status, nit = _iterate(T, basis, x, lo, hi, cost, nit, max_iter)
    if status != 0:  # phase 1 is bounded below by 0, so only phase 2 can be unbounded
        message = "unbounded" if status == 3 else f"simplex exceeded {max_iter} iterations"
        return SimplexResult(status, None, np.nan, nit, message)

    # Recompute the basic values in one pass from b and the nonbasic values,
    # so the step-by-step updates' rounding does not reach the answer; the
    # tableau's logical columns hold B^-1.
    nonbasic = np.ones(N, dtype=bool)
    nonbasic[basis] = False
    x[basis] = T[:, n : n + m] @ b - T[:, nonbasic] @ x[nonbasic]
    return SimplexResult(0, x[:n].copy(), float(c @ x[:n]), nit, "optimal")


def _iterate(T, basis, x, lo, hi, cost, nit: int, max_iter: int) -> tuple[int, int]:
    """Primal simplex with Bland's rule on the tableau ``T`` (updated in
    place with ``basis`` and ``x``); returns ``(status, iterations)``."""
    m, N = T.shape
    is_basic = np.zeros(N, dtype=bool)
    is_basic[basis] = True
    d = cost - cost[basis] @ T  # reduced costs, updated with each pivot
    while True:
        up = (d < -_TOL) & (x < hi)
        down = (d > _TOL) & (x > lo)
        eligible = np.flatnonzero((up | down) & ~is_basic)
        if not eligible.size:
            return 0, nit
        if nit >= max_iter:
            return 1, nit
        j = eligible[0]
        step = 1.0 if up[j] else -1.0
        alpha = step * T[:, j]  # x_B moves by -t * alpha
        xb, lb, ub = x[basis], lo[basis], hi[basis]
        ratio = np.full(m, np.inf)
        fall, rise = alpha > _TOL, alpha < -_TOL
        ratio[fall] = (xb[fall] - lb[fall]) / alpha[fall]
        ratio[rise] = (ub[rise] - xb[rise]) / -alpha[rise]
        np.maximum(ratio, 0.0, out=ratio)
        t_row = ratio.min() if m else np.inf
        t_flip = hi[j] - lo[j]
        nit += 1
        if t_flip <= t_row:
            if np.isinf(t_flip):
                return 3, nit
            x[basis] -= t_flip * alpha
            x[j] = hi[j] if step > 0 else lo[j]
            continue
        ties = np.flatnonzero(ratio <= t_row + _TOL)
        r = ties[np.argmin(basis[ties])]
        x[basis] -= t_row * alpha
        x[j] += step * t_row
        leaving = basis[r]
        x[leaving] = lo[leaving] if alpha[r] > 0 else hi[leaving]
        pivot = T[r] / T[r, j]
        rows = np.flatnonzero(T[:, j])  # the tableaux here are mostly zeros
        T[rows] -= np.outer(T[rows, j], pivot)
        T[r] = pivot
        d -= d[j] * pivot
        basis[r] = j
        is_basic[leaving], is_basic[j] = False, True
