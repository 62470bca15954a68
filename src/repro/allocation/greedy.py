"""Greedy waterfilling baseline: most-available donor first.

Not in the paper; provided as a second reference point between the
LP allocator (global optimum) and the endpoint scheme (availability-blind).
The greedy allocator *does* see global availability (like the LP) but
optimises nothing: it takes locally first, then drains donors in
descending order of what they can still provide.
"""

from __future__ import annotations

import numpy as np

from ..errors import InsufficientResourcesError
from .problem import Allocation, AllocationRequest

__all__ = ["allocate_greedy"]

_TOL = 1e-12


def allocate_greedy(
    system,
    principal: str,
    amount: float,
    *,
    level: int | None = None,
    partial: bool = False,
) -> Allocation:
    """Allocate local-first, then donors by descending available flow."""
    request = AllocationRequest(principal, amount, level)
    a = system.index(principal)
    n = system.n
    V = system.V
    U = system.u(level)
    C = system.capacities(level)

    x = float(amount)
    if x > float(C[a]) + 1e-9:
        if not partial:
            raise InsufficientResourcesError(principal, x, float(C[a]))
        x = float(C[a])

    take = np.zeros(n)
    take[a] = min(float(V[a]), x)
    remaining = x - take[a]

    if remaining > _TOL:
        bounds = np.minimum(U[:, a], V)
        bounds[a] = 0.0
        for k in np.argsort(-bounds):
            if remaining <= _TOL:
                break
            grant = min(float(bounds[k]), remaining)
            if grant > _TOL:
                take[k] = grant
                remaining -= grant

    return Allocation.finalize(
        system, request, take, "greedy", satisfied=x - max(remaining, 0.0)
    )
