"""Cost-aware allocation (the paper's borrowing-cost remark).

Section 3.1: "In general this decision depends on several factors such as
the cost of borrowing resources from a different site and concerns of
fairness.  Here, we restrict our attention to optimizing a global
metric..."  This module implements the road not taken: the same feasible
region as :func:`~repro.allocation.lp_allocator.allocate_lp`, with a
per-donor borrowing-cost objective and an optional fairness cap on the
perturbation metric:

    minimise   sum_k cost_k * d_k
    subject to the flow bounds of the Section-3.1 LP
               sum_k d_k = x
               (optional) drop_i <= theta_cap  for every i != A

With ``theta_cap`` set to the optimum of the perturbation LP, this picks
the *cheapest among the least-perturbing* allocations — a lexicographic
combination of the two objectives.
"""

from __future__ import annotations

import numpy as np

from ..errors import InfeasibleAllocationError, InsufficientResourcesError
from ..lp import solve
from .lp_allocator import allocate_lp, take_blocks
from .problem import Allocation, AllocationRequest

__all__ = ["allocate_cost_aware"]


def allocate_cost_aware(
    system,
    principal: str,
    amount: float,
    costs,
    *,
    level: int | None = None,
    theta_cap: float | None = None,
    lexicographic: bool = False,
    backend: str = "scipy",
    partial: bool = False,
) -> Allocation:
    """Allocate minimising total borrowing cost.

    Parameters
    ----------
    costs:
        Per-principal unit cost of drawing on that principal's resources
        (length n).  The requester's own cost is typically 0.
    theta_cap:
        Optional fairness bound: no other principal's capacity may drop
        by more than this.
    lexicographic:
        First minimise the perturbation theta (the paper's objective),
        then minimise cost among those optima.  Overrides ``theta_cap``.
    """
    request = AllocationRequest(principal, amount, level)
    a = system.index(principal)
    n = system.n
    V = system.V
    U = system.u(level)
    C = system.capacities(level)
    T = system.coefficients(level)
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (n,):
        raise InfeasibleAllocationError(f"costs must have length {n}")

    x = float(amount)
    if x > float(C[a]) + 1e-9:
        if not partial:
            raise InsufficientResourcesError(principal, x, float(C[a]))
        x = float(C[a])
    if x <= 1e-12:
        return Allocation.finalize(system, request, np.zeros(n), "cost-aware", cost=0.0)

    if lexicographic:
        base = allocate_lp(
            system, principal, x, level=level, backend=backend
        )
        # A relative slack: a fixed 1e-9 vanishes below float resolution
        # once theta reaches ~1e8.
        theta_cap = base.theta * (1 + 1e-9) + 1e-9

    # The fairness cap is one drop row per other principal.
    rows = np.arange(0) if theta_cap is None else np.delete(np.arange(n), a)
    drops, total, ub = take_blocks(a, V, U, T, rows)
    res = solve(
        costs, drops, np.full(len(rows), theta_cap, dtype=float), total,
        np.array([x]), [(0.0, u) for u in ub.tolist()],
        backend=backend, model="allocate-cost",
    )
    if not res.ok:
        raise InfeasibleAllocationError(
            f"cost-aware allocation LP reported {res.status.value} "
            f"(theta_cap={theta_cap!r})"
        )
    take = np.clip(res.x, 0.0, None)
    return Allocation.finalize(
        system, request, take, "cost-aware", cost=float(res.objective)
    )
