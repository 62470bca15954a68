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
from ..lp import LinearProgram
from .lp_allocator import allocate_lp
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
        theta_cap = base.theta + 1e-9

    lp = LinearProgram("allocate-cost")
    ub = [V[a] if i == a else min(U[i, a], V[i]) for i in range(n)]
    d = [lp.variable(f"d{i}", lower=0.0, upper=float(ub[i])) for i in range(n)]
    total = d[0]
    for i in range(1, n):
        total = total + d[i]
    lp.add_constraint(total == x, name="total")
    if theta_cap is not None:
        for i in range(n):
            if i == a:
                continue
            drop = d[i] * 1.0
            for k in range(n):
                if k != i and T[k, i] != 0.0:
                    drop = drop + d[k] * float(T[k, i])
            lp.add_constraint(drop <= float(theta_cap), name=f"fair{i}")
    obj = d[0] * float(costs[0])
    for i in range(1, n):
        obj = obj + d[i] * float(costs[i])
    lp.minimize(obj)
    res = lp.solve(backend=backend)
    if not res.ok:
        raise InfeasibleAllocationError(
            f"cost-aware allocation LP reported {res.status.value} "
            f"(theta_cap={theta_cap!r})"
        )
    take = np.array([max(res[f"d{i}"], 0.0) for i in range(n)])
    return Allocation.finalize(
        system, request, take, "cost-aware", cost=float(res.objective)
    )
