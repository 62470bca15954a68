"""The end-point (proportional) enforcement baseline of Figure 13.

"The basic scheme we used redistributes requests queued up at a proxy's
front-end to all other ISPs.  The number of requests redistributed is
proportional to the quantity of sharing agreements with other ISPs.
Therefore, when an ISP is busy, it tends to redirect more requests to
nearby ISPs than faraway ISPs."

This scheme sees only *direct* agreements and no global availability
information: the requester takes from its own resources first, then splits
the remainder over donors proportionally to the direct agreement quantity
``U_kA`` at level 1, ``min(S[k, A] * V_k + A[k, A], V_k)``, capping each
donor at that same quantity.  It cannot exploit transitive chains, and it
sends work to heavily loaded donors just as readily as to idle ones —
which is exactly the behaviour Figure 13 penalises.
"""

from __future__ import annotations

import numpy as np

from ..errors import InsufficientResourcesError
from .problem import Allocation, AllocationRequest

__all__ = ["allocate_endpoint"]

_TOL = 1e-12


def allocate_endpoint(
    system,
    principal: str,
    amount: float,
    *,
    partial: bool = True,
) -> Allocation:
    """Allocate using the proportional end-point scheme.

    Unlike :func:`~repro.allocation.lp_allocator.allocate_lp` this may
    satisfy only part of the request even when transitive capacity exists;
    with ``partial=False`` that shortfall raises
    :class:`~repro.errors.InsufficientResourcesError` instead.
    """
    request = AllocationRequest(principal, amount, level=1)
    a = system.index(principal)
    n = system.n
    V = system.V

    # Direct agreement quantities only (U at level 1): no chains, no
    # availability feedback.
    direct = system.u(1)[:, a]

    take = np.zeros(n)
    local = min(float(V[a]), float(amount))
    take[a] = local
    remaining = float(amount) - local

    total_weight = float(direct.sum())
    if remaining > _TOL and total_weight > _TOL:
        # Proportional split; donors that saturate their agreement bound
        # forfeit the excess (the endpoint scheme does not re-balance).
        desired = direct / total_weight * remaining
        granted = np.minimum(desired, direct)
        take += granted
        remaining -= float(granted.sum())

    satisfied = float(amount) - max(remaining, 0.0)
    if remaining > _TOL and not partial:
        raise InsufficientResourcesError(principal, amount, satisfied)

    return Allocation.finalize(system, request, take, "endpoint", satisfied=satisfied)
