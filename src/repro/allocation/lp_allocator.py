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

Two points the paper leaves implicit are resolved here and exercised in
the tests:

**The requester's row.**  Constraints (2), (3) and (6) cannot all hold for
``i = A`` whenever the request is partly served remotely: (2) gives
``C'_A = C_A - d_A - sum_k d_k T_kA`` which exceeds ``C_A - x`` when any
donor ``k`` has ``T_kA < 1``, contradicting (3); and applying (6) at
``i = A`` under (3) forces ``theta >= x``, which makes every feasible
point optimal (every other principal's drop is bounded by ``x``), i.e. a
degenerate objective.  We therefore support both consistent readings:

- ``objective="others"`` (default, keeps (3)): the requester's post-
  allocation capacity is *defined* as ``C_A - x`` and the metric is
  ``theta = max_{i != A} (C_i - C'_i)``;
- ``objective="all"`` (keeps (2) for every row, drops (3)): ``C'_A`` is
  computed like everyone else's and the metric ranges over all principals.

Both yield valid agreement-respecting allocations; they may differ in
which donor they prefer in ties.

**Formulations.**  ``formulation="faithful"`` materialises every variable
the paper counts (``n(n-1)`` flows ``I'``, ``n`` capacities ``C'``, ``n``
remainders ``V'``, plus ``theta`` — the ``n^2 + n + 1`` of Section 3.1).
``formulation="reduced"`` eliminates ``I'`` and ``C'`` algebraically
(substituting (1) into (2)) leaving only the takes ``d_i = V_i - V'_i``
and ``theta``.  The optima are identical (property-tested); reduced is the
default in the simulator for speed.  The reduced LP is built directly as
arrays, the faithful one through :class:`~repro.lp.LinearProgram`; both
are solved by :func:`repro.lp.solve` with either backend.
"""

from __future__ import annotations

import numpy as np

from ..errors import (
    InfeasibleAllocationError,
    InsufficientResourcesError,
    LPError,
)
from ..lp import BACKENDS, LinearProgram, solve
from ..obs import get_observer
from .problem import Allocation, AllocationRequest

__all__ = ["allocate_lp"]

_TOL = 1e-7


def allocate_lp(
    system,
    principal: str,
    amount: float,
    *,
    level: int | None = None,
    formulation: str = "reduced",
    objective: str = "others",
    backend: str = "scipy",
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
    objective:
        ``"others"`` (default) or ``"all"`` — see module docstring.
    backend:
        LP backend (``"scipy"`` or ``"simplex"``).
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
    if objective not in ("others", "all"):
        raise LPError(f"unknown objective {objective!r}; use 'others' or 'all'")
    if backend not in BACKENDS:
        raise LPError(f"unknown LP backend {backend!r}; choose from {sorted(BACKENDS)}")
    request = AllocationRequest(principal, amount, level)
    a = system.index(principal)
    n = system.n
    obs = get_observer()
    with obs.span(
        "allocation.request", principal=principal, amount=float(amount), n=n
    ) as sp:
        V = system.V
        U = system.u(level)  # inflow bounds, absolute agreements included
        C = system.capacities(level)
        T = system.coefficients(level)

        x = float(amount)
        cap = float(C[a])
        if x > cap + _TOL:
            if not partial:
                obs.counter("allocation.denied")
                obs.event(
                    "allocation.insufficient", principal=principal,
                    requested=x, available=cap,
                )
                raise InsufficientResourcesError(principal, x, cap)
            x = cap
        if x <= _TOL:
            return Allocation.finalize(
                system, request, np.zeros(n), "lp", satisfied=0.0, theta=0.0
            )

        with obs.span("lp.build", formulation=formulation, n=n):
            if formulation == "reduced":
                arrays = _reduced_arrays(n, a, x, V, U, T, objective)
            else:
                arrays = _faithful_model(n, a, x, V, U, T, C, objective).to_arrays()[:6]
        res = solve(*arrays, backend=backend, model=f"allocate-{formulation}")
        if not res.ok:
            obs.counter("allocation.infeasible")
            obs.event(
                "allocation.infeasible", principal=principal, amount=x,
                formulation=formulation, backend=backend,
            )
            raise InfeasibleAllocationError(
                f"allocation LP reported {res.status.value} "
                f"(x={x:g}, requester index {a})"
            )
        # The faithful LP's first n variables are the remainders V'.
        take = res.x[:n] if formulation == "reduced" else V - res.x[:n]
        take = np.clip(take, 0.0, None)
        theta = float(res.x[-1])
        if obs.enabled:
            donors = int(np.count_nonzero(take > _TOL))
            obs.counter("allocation.requests", scheme="lp")
            obs.histogram("allocation.theta", theta)
            obs.histogram("allocation.donors", donors)
            sp.set(theta=theta, donors=donors, satisfied=x)
    return Allocation.finalize(system, request, take, "lp", satisfied=x, theta=theta)


def _donor_bounds(n: int, a: int, V: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Upper bound on the take from each principal (constraint (4))."""
    ub = np.empty(n)
    for i in range(n):
        ub[i] = V[a] if i == a else min(U[i, a], V[i])
    return ub


def _reduced_arrays(n, a, x, V, U, T, objective):
    """The reduced formulation as ``(c, A_ub, b_ub, A_eq, b_eq, bounds)``.

    Variables ``[d_0 .. d_{n-1}, theta]``: the drop of principal ``i``,
    ``d_i + sum_k d_k T_ki``, is row ``i`` of ``I + T.T``, kept below
    ``theta`` by a ``-1`` theta column; ``sum d = x``; ``0 <= d_i <= ub_i``.
    """
    ub = _donor_bounds(n, a, V, U)
    rows = np.arange(n) if objective == "all" else np.delete(np.arange(n), a)
    A_ub = np.zeros((len(rows), n + 1))
    A_ub[:, :n] = (T.T + np.eye(n))[rows]
    A_ub[:, n] = -1.0
    b_ub = np.zeros(len(rows))
    A_eq = np.ones((1, n + 1))
    A_eq[0, n] = 0.0
    c = np.zeros(n + 1)
    c[n] = 1.0
    bounds = [(0.0, float(u)) for u in ub] + [(0.0, None)]
    return c, A_ub, b_ub, A_eq, np.array([x]), bounds


def _faithful_model(n, a, x, V, U, T, C, objective):
    """The paper's full variable set: V'_i, C'_i, I'_ij and theta."""
    lp = LinearProgram("allocate-faithful")
    ub = _donor_bounds(n, a, V, U)
    vp = [lp.variable(f"Vp{i}", lower=float(max(V[i] - ub[i], 0.0)), upper=float(V[i])) for i in range(n)]
    cp = [lp.variable(f"Cp{i}", lower=0.0) for i in range(n)]
    ip = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                ip[i, j] = lp.variable(f"Ip{i}_{j}", lower=0.0)
    theta = lp.variable("theta", lower=0.0)

    # (1) I'_ij = V'_i T_ij
    for (i, j), var in ip.items():
        lp.add_constraint(var == vp[i] * float(T[i, j]), name=f"flow{i}_{j}")

    # (2) C'_i = V'_i + sum_{k != i} I'_ki   (all rows, or all but A)
    for i in range(n):
        if objective == "others" and i == a:
            continue
        expr = vp[i] * 1.0
        for k in range(n):
            if k != i:
                expr = expr + ip[k, i]
        lp.add_constraint(cp[i] == expr, name=f"cap{i}")

    # (3) C'_A = C_A - x  (only in the "others" reading)
    if objective == "others":
        lp.add_constraint(cp[a] == float(C[a] - x), name="requester")

    # (5) sum (V_i - V'_i) = x
    spent = (V[0] - vp[0]) * 1.0
    for i in range(1, n):
        spent = spent + (float(V[i]) - vp[i])
    lp.add_constraint(spent == x, name="total")

    # (6) C_i - theta <= C'_i <= C_i
    rows = range(n) if objective == "all" else (i for i in range(n) if i != a)
    for i in rows:
        lp.add_constraint(cp[i] >= float(C[i]) - theta, name=f"lo{i}")
        lp.add_constraint(cp[i] <= float(C[i]), name=f"hi{i}")

    lp.minimize(theta)
    return lp
