"""The Section-3.1 linear-programming allocator.

Given effective capacities and flow bounds, choose how much to draw from
each principal's raw resources so the request is met while perturbing
global availability the least:

    minimise   theta
    subject to I'_ij = V'_i * T_ij                    (1)
               C'_i  = V'_i + sum_{k != i} I'_ki      (2)
               C'_A  = C_A - x                        (3)
               0 <= V_i - V'_i <= U_iA   (i != A)     (4)
               0 <= V_A - V'_A <= V_A
               sum_i (V_i - V'_i) = x                 (5)
               C_i - theta <= C'_i <= C_i             (6)

Three points the paper leaves implicit are resolved here and exercised in
the tests:

**The requester's row.**  Constraints (2), (3) and (6) cannot all hold for
``i = A`` whenever the request is partly served remotely: (2) gives
``C'_A = C_A - d_A - sum_k d_k T_kA`` which exceeds ``C_A - x`` when any
donor ``k`` has ``T_kA < 1``, contradicting (3); and applying (6) at
``i = A`` under (3) forces ``theta >= x``, which makes every feasible
point optimal (every other principal's drop is bounded by ``x``), i.e. a
degenerate objective.  The LP therefore keeps (3): the requester's
post-allocation capacity is *defined* as ``C_A - x``, (2) and (6) apply
to the other principals only, and the metric is
``theta = max_{i != A} (C_i - C'_i)``.

**Absolute agreements.**  (2) sums relative flows only, but ``C_i`` also
holds absolute grants (Section 3.2's ``U_ki = min(I_ki + A_ki, V_k)``).
The faithful LP adds that part of ``C_i`` to (2) as a constant, so
``C_i - C'_i`` is the drop the reduced LP bounds and the two formulations
agree with absolute agreements too.

**Formulations.**  ``formulation="faithful"`` materialises every variable
the paper counts (``n(n-1)`` flows ``I'``, ``n`` capacities ``C'``, ``n``
remainders ``V'``, plus ``theta`` — the ``n^2 + n + 1`` of Section 3.1).
``formulation="reduced"`` eliminates ``I'`` and ``C'`` algebraically
(substituting (1) into (2)) leaving only the takes ``d_i = V_i - V'_i``
and ``theta``.  The optima are identical (property-tested); reduced is the
default and every caller in the package uses it, while the faithful form
serves as the tests' oracle.  Both are built directly as arrays and
solved by :func:`repro.lp.solve`: the in-repo simplex by default, HiGHS
on request.

Constraint (4)'s take bounds come from one helper, shared with the
multigrid allocator and the sanitizer, and :func:`min_theta_lp` builds the
reduced min-theta LP for this allocator and for the multigrid's coarse
and in-group LPs.
"""

from __future__ import annotations

import numpy as np

from ..errors import (
    InfeasibleAllocationError,
    InsufficientResourcesError,
    LPError,
)
from ..lp import BACKENDS, solve
from ..obs import get_observer
from .problem import Allocation, AllocationRequest, _agreement_bound

__all__ = ["allocate_lp", "min_theta_lp"]

_TOL = 1e-7


def allocate_lp(
    system,
    principal: str,
    amount: float,
    *,
    level: int | None = None,
    formulation: str = "reduced",
    backend: str = "simplex",
    partial: bool = False,
) -> Allocation:
    """Allocate ``amount`` to ``principal``, minimally perturbing the system.

    Parameters
    ----------
    system:
        A :class:`~repro.agreements.topology.CapacityView` (the GRM's hot
        path passes views bound to its cached topology).
    principal, amount:
        The requester ``A`` and request size ``x``.
    level:
        Transitivity level ``m`` (``None`` = full closure).
    formulation:
        ``"reduced"`` (default) or ``"faithful"`` — see module docstring.
    backend:
        LP backend: ``"simplex"`` (default, the in-repo bounded simplex)
        or ``"scipy"`` (HiGHS, imported only when asked for).
    partial:
        If the request exceeds ``C_A``, grant ``C_A`` instead of raising
        :class:`~repro.errors.InsufficientResourcesError`.

    Returns
    -------
    Allocation
        With ``take`` summing to the satisfied amount and the post-state
        ``V'`` / ``C'`` vectors.
    """
    if formulation not in ("reduced", "faithful"):
        raise LPError(f"unknown formulation {formulation!r}; use 'reduced' or 'faithful'")
    if backend not in BACKENDS:
        raise LPError(f"unknown LP backend {backend!r}; choose from {sorted(BACKENDS)}")
    request = AllocationRequest(principal, amount, level)
    a = system.index(principal)
    n = system.n
    obs = get_observer()
    with obs.span(
        "allocation.request", principal=principal, amount=float(amount), n=n
    ) as sp:
        C = system.capacities(level)
        T = system.coefficients(level)

        x = float(amount)
        cap = float(C[a])
        if x > cap + _TOL:
            if not partial:
                obs.counter("allocation.denied")
                sp.set(available=cap)
                raise InsufficientResourcesError(principal, x, cap)
            x = cap
        if x <= _TOL:
            return Allocation.finalize(
                system, request, np.zeros(n), "lp", satisfied=0.0, theta=0.0
            )

        with obs.span("lp.build", formulation=formulation, n=n):
            ub = _agreement_bound(system, a, level)
            if formulation == "reduced":
                arrays = min_theta_lp(x, T, np.delete(np.arange(n), a), ub)
            else:
                arrays = _faithful_arrays(a, x, system.V, system.u(level), C, T, ub)
        res = solve(*arrays, backend=backend, model=f"allocate-{formulation}")
        if not res.ok:
            obs.counter("allocation.infeasible")
            raise InfeasibleAllocationError(
                f"allocation LP reported {res.status.value} "
                f"(x={x:g}, requester index {a})"
            )
        # The faithful LP's first n variables are the remainders V'.
        take = res.x[:n] if formulation == "reduced" else system.V - res.x[:n]
        take = np.clip(take, 0.0, None)
        theta = float(res.x[-1])
        if obs.enabled:
            donors = int(np.count_nonzero(take > _TOL))
            obs.histogram("allocation.theta", theta)
            obs.histogram("allocation.donors", donors)
            sp.set(theta=theta, donors=donors, satisfied=x)
    return Allocation.finalize(system, request, take, "lp", satisfied=x, theta=theta)


def min_theta_lp(x, T, rows, ub):
    """The reduced min-theta LP over the takes ``d_0 .. d_{n-1}``, as
    ``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` over ``[d_0 .. d_{n-1}, theta]``.

    ``min theta`` s.t. ``drops @ d <= theta``, ``sum d = x`` and
    ``0 <= d <= ub``, where ``drops`` holds rows ``rows`` of ``I + T.T``:
    row ``i`` is principal ``i``'s capacity drop ``d_i + sum_k d_k T_ki``.
    """
    n = len(ub)
    drops = (T.T + np.eye(n))[rows]
    m = len(drops)
    c = np.zeros(n + 1)
    c[n] = 1.0
    A_ub = np.zeros((m, n + 1))
    A_ub[:, :n] = drops
    A_ub[:, n] = -1.0
    A_eq = np.zeros((1, n + 1))
    A_eq[:, :n] = 1.0
    bounds = [(0.0, u) for u in ub.tolist()] + [(0.0, None)]
    return c, A_ub, np.zeros(m), A_eq, np.array([x]), bounds


def _faithful_arrays(a, x, V, U, C, T, ub):
    """The paper's full variable set as arrays, over
    ``[V'_0 .. V'_{n-1}, C'_0 .. C'_{n-1}, I'_ij (i != j, row-major), theta]``.

    Equality rows: (1) ``I'_ij - T_ij V'_i = 0``; (2) ``C'_i - V'_i -
    sum_k I'_ki = a_i`` for ``i != A``; (3) ``C'_A = C_A - x``; (5)
    ``-sum V' = x - sum V``.  Inequality rows, per ``i != A``: (6)
    ``-C'_i - theta <= -C_i`` then ``C'_i <= C_i``.

    ``a_i = sum_k (U_ki - V_k T_ki)`` is the part of ``C_i`` the relative
    flows do not carry — absolute grants and clamps at donor capacity —
    held fixed, as the reduced LP holds it; it is 0 without absolute
    agreements.
    """
    n = len(V)
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    nf = len(src)
    flow = 2 * n + np.arange(nf)  # column of I'_ij
    theta = 2 * n + nf
    nvar = theta + 1
    rows = np.delete(np.arange(n), a)
    r = len(rows)

    A_eq = np.zeros((nf + r + 2, nvar))
    b_eq = np.zeros(len(A_eq))
    f = np.arange(nf)
    A_eq[f, flow] = 1.0
    A_eq[f, src] = -T[src, dst]
    cap = nf + np.arange(r)
    A_eq[cap, n + rows] = 1.0
    A_eq[cap, rows] = -1.0
    row, inflow = np.nonzero(rows[:, None] == dst)  # I'_ki enters C'_i
    A_eq[cap[row], flow[inflow]] = -1.0
    b_eq[cap] = (U - V[:, None] * T).sum(axis=0)[rows]
    A_eq[nf + r, n + a] = 1.0
    b_eq[nf + r] = C[a] - x
    A_eq[-1, :n] = -1.0
    # x - sum V, with V summed strictly left to right (np.sum pairs terms).
    b_eq[-1] = x - np.cumsum(V)[-1]

    A_ub = np.zeros((2 * r, nvar))
    lo, hi = np.arange(0, 2 * r, 2), np.arange(1, 2 * r, 2)
    A_ub[lo, n + rows] = -1.0
    A_ub[lo, theta] = -1.0
    A_ub[hi, n + rows] = 1.0
    b_ub = np.empty(2 * r)
    b_ub[lo] = -C[rows]
    b_ub[hi] = C[rows]

    c = np.zeros(nvar)
    c[theta] = 1.0
    lower = np.zeros(nvar)
    lower[:n] = np.maximum(V - ub, 0.0)
    upper = np.full(nvar, np.inf)
    upper[:n] = V
    return c, A_ub, b_ub, A_eq, b_eq, list(zip(lower.tolist(), upper.tolist()))
