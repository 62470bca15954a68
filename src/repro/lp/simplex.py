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
``c.x``.  The smallest eligible index enters (Bland's rule).  The ratio test
is Harris's: it may step up to ``_FEAS_TOL`` past a basic variable's bound,
which lets it skip pivots under a tenth of the largest blocking one; the
smallest basic index leaves among the rest.  An optimum it leaves past a
bound (a take of -2e-9 on a 2e-7 request, say) is solved again with the
exact ratio test, so every returned value is within its bounds and every
row holds to round-off.  The basic values are
recomputed from the original rows at the end of each phase.  Without that,
agreement structures whose coefficients span many orders of magnitude (deep
hierarchies) led to wrong answers and spurious "infeasible" verdicts.  A
basis that is still singular (a pivot taken on round-off), or an unbounded
ray, makes the solver start again, refactoring the tableau at every pivot.

It is deliberately dense and simple (the allocation LPs here have at most a
few hundred variables).  It is the default backend of
:func:`repro.lp.solve`, so every allocation LP runs on it unless a caller
asks for HiGHS; HiGHS is cross-checked against it in the tests.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["SimplexResult", "solve_simplex"]

_TOL = 1e-9  # pivot and reduced-cost tolerance
_FEAS_TOL = 1e-7  # phase-1 objective above which the LP is infeasible
_BOUND_TOL = 1e-12  # how far past a bound round-off leaves a returned value
_PAST_BOUND = -1  # _two_phase's status for a Harris point past a bound


class SimplexResult(NamedTuple):
    """Outcome in :func:`scipy.optimize.linprog`'s terms: ``status`` is 0
    (optimal), 1 (iteration limit), 2 (infeasible), 3 (unbounded) or 4
    (numerical trouble: a singular basis); ``nit`` counts pivots and bound
    flips."""

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

    M = np.zeros((m, N))  # [A | I | artificial columns]
    M[:, :n] = A
    M[:, n : n + m] = np.eye(m)
    M[short, n + m + np.arange(k)] = sign
    lo = np.concatenate([lo_x, np.zeros(m + k)])
    hi = np.concatenate([hi_x, np.where(eq_row, 0.0, np.inf), np.full(k, np.inf)])
    x = np.concatenate([x0, residual, np.abs(residual[short])])
    x[n + short] = 0.0
    basis = n + np.arange(m)
    basis[short] = n + m + np.arange(k)

    # A singular basis, or an unbounded ray, can come from a pivot taken on
    # round-off; solve again, refactoring the tableau from M at every pivot
    # instead of updating it.  An optimum Harris's ratio test left past a
    # bound is solved again with the exact ratio test: clipped to its
    # bounds, such a point would no longer meet its rows.
    nit = 0
    for refactor in (False, True):
        for harris in (True, False):
            T = M.copy()  # B^-1 M; the starting B is diagonal +-1
            T[short] *= sign[:, None]
            res = _two_phase(
                c, M, T, b, basis.copy(), x.copy(), lo, hi.copy(), nit, max_iter, harris, refactor
            )
            nit = res.nit
            if res.status != _PAST_BOUND:
                break
        if res.status not in (3, 4):
            return res
    return res


def _two_phase(c, M, T, b, basis, x, lo, hi, nit, max_iter, harris, refactor) -> SimplexResult:
    """Phase 1 from the artificial basis, then phase 2 on ``c``, with
    Harris's ratio test or the exact one; status ``_PAST_BOUND`` if
    Harris's steps left the optimum past a bound."""
    m, N = M.shape
    n = len(c)
    cost = np.zeros(N)
    cost[n + m :] = 1.0
    status, nit = _iterate(M, T, basis, x, lo, hi, cost, nit, max_iter, harris, refactor)
    if status == 0:
        if not _refresh(M, b, basis, x):
            return SimplexResult(4, None, np.nan, nit, "singular basis")
        if x[n + m :].sum() > _FEAS_TOL:
            return SimplexResult(2, None, np.nan, nit, "infeasible")
        # Phase 2: artificials are fixed at 0, so none can re-enter and a
        # basic one (left on a redundant row) blocks any move that would
        # change it.
        hi[n + m :] = 0.0
        cost[:] = 0.0
        cost[:n] = c
        status, nit = _iterate(M, T, basis, x, lo, hi, cost, nit, max_iter, harris, refactor)
    if status != 0:  # phase 1 is bounded below by 0, so only phase 2 can be unbounded
        message = {3: "unbounded", 4: "singular basis"}.get(
            status, f"simplex exceeded {max_iter} iterations"
        )
        return SimplexResult(status, None, np.nan, nit, message)
    if not _refresh(M, b, basis, x):
        return SimplexResult(4, None, np.nan, nit, "singular basis")
    if harris and ((x < lo - _BOUND_TOL) | (x > hi + _BOUND_TOL)).any():
        return SimplexResult(_PAST_BOUND, None, np.nan, nit, "past a bound")
    return SimplexResult(0, x[:n].copy(), float(c @ x[:n]), nit, "optimal")


def _refresh(M, b, basis, x) -> bool:
    """Recompute the basic values from the original rows ``M`` and ``b``
    and the nonbasic values, so the step-by-step updates' rounding does not
    reach a phase's verdict; ``False`` if the basis matrix is singular."""
    nonbasic = np.ones(len(x), dtype=bool)
    nonbasic[basis] = False
    try:
        x[basis] = np.linalg.solve(M[:, basis], b - M[:, nonbasic] @ x[nonbasic])
    except np.linalg.LinAlgError:
        return False
    return True


def _iterate(M, T, basis, x, lo, hi, cost, nit, max_iter, harris, refactor) -> tuple[int, int]:
    """Primal simplex on the tableau ``T = B^-1 M`` (updated in place with
    ``basis`` and ``x``, or recomputed from ``M`` at every pivot when
    ``refactor``); returns ``(status, iterations)``, status 4 on a
    singular basis.  Without ``harris`` the ratio test is the exact one:
    the first bound reached blocks."""
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
        size = np.abs(alpha)
        moves = size > _TOL
        room = np.where(alpha > 0, xb - lb, ub - xb)[moves]
        blocking = np.flatnonzero(moves)
        t_flip = hi[j] - lo[j]
        nit += 1
        if blocking.size:
            # Harris's two-pass ratio test: the longest step that keeps
            # every basic variable within _FEAS_TOL of its bounds, then,
            # among the rows that block within it, a pivot of at least a
            # tenth of the largest (Bland's smallest basic index among
            # those), so no tiny pivot amplifies round-off.
            pivots = size[blocking]
            ratio = room / pivots
            if harris:
                near = ratio <= ((room + _FEAS_TOL) / pivots).min()
                pick = np.flatnonzero(near & (pivots >= 0.1 * pivots[near].max()))
            else:
                pick = np.flatnonzero(ratio <= ratio.min())
            k = pick[np.argmin(basis[blocking[pick]])]
            r, t_row = blocking[k], max(ratio[k], 0.0)
        else:
            t_row = np.inf
        if t_flip <= t_row:
            if np.isinf(t_flip):
                return 3, nit
            x[basis] -= t_flip * alpha
            x[j] = hi[j] if step > 0 else lo[j]
            continue
        x[basis] -= t_row * alpha
        x[j] += step * t_row
        leaving = basis[r]
        x[leaving] = lo[leaving] if alpha[r] > 0 else hi[leaving]
        basis[r] = j
        is_basic[leaving], is_basic[j] = False, True
        if refactor:
            try:
                T[:] = np.linalg.solve(M[:, basis], M)
            except np.linalg.LinAlgError:
                return 4, nit
            d = cost - cost[basis] @ T
            continue
        pivot = T[r] / T[r, j]
        rows = np.flatnonzero(T[:, j])  # the tableaux here are mostly zeros
        T[rows] -= np.outer(T[rows, j], pivot)
        T[r] = pivot
        d -= d[j] * pivot
