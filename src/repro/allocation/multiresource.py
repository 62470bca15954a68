"""Multi-resource requests (Section 3.2).

"A request for k types of resources is in the form of a vector
<r_1, r_2, ..., r_k> ...  To schedule this request, we need to solve k
linear systems, one for each resource requested, and allocate resources
according to the results."  Coupled resources (CPU+memory on one machine)
are bound into a new resource type via :class:`~repro.units.CoupledResource`
so they are always allocated together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..agreements.topology import CapacityView
from ..errors import AllocationError, InsufficientResourcesError
from ..units import CoupledResource, ResourceVector
from .lp_allocator import allocate_lp
from .problem import Allocation

__all__ = ["MultiResourceRequest", "allocate_multi"]


@dataclass(frozen=True)
class MultiResourceRequest:
    """A vector request, optionally over coupled (bundled) resource types.

    ``needs`` maps resource-type name to quantity; entries naming a
    :class:`~repro.units.CoupledResource` are in bundle units.
    """

    principal: str
    needs: ResourceVector
    level: int | None = None
    coupled: tuple[CoupledResource, ...] = field(default=())


def allocate_multi(
    systems: dict[str, CapacityView],
    request: MultiResourceRequest,
    *,
    backend: str = "simplex",
) -> dict[str, Allocation]:
    """Solve one allocation LP per requested resource type.

    Parameters
    ----------
    systems:
        Maps resource-type name to the
        :class:`~repro.agreements.topology.CapacityView` governing that
        type (built e.g. with ``bank.capacity_view(rtype)`` per type, which
        reuses the bank's version-keyed topology cache).  A coupled
        resource must have its *own* entry: the caller registers the
        bundle as a first-class resource type, which is precisely the
        paper's "bind these types into a new type" prescription.
    request:
        The vector request.

    Returns
    -------
    dict
        Resource type -> :class:`Allocation`.  All-or-nothing: a capacity
        shortfall on any type raises before any result is returned, so a
        caller never sees a half-planned vector request.

    Raises
    ------
    AllocationError
        If a requested type has no governing system.
    InsufficientResourcesError
        If any type cannot be satisfied.
    """
    plans: dict[str, Allocation] = {}
    # Pre-check every type before planning any, for all-or-nothing semantics.
    for rtype, quantity in request.needs.items():
        if quantity <= 0:
            continue
        system = systems.get(rtype)
        if system is None:
            raise AllocationError(
                f"no agreement system registered for resource type {rtype!r}"
            )
        available = system.capacity_of(request.principal, request.level)
        if quantity > available + 1e-9:
            raise InsufficientResourcesError(request.principal, quantity, available)
    for rtype, quantity in request.needs.items():
        if quantity <= 0:
            continue
        plans[rtype] = allocate_lp(
            systems[rtype],
            request.principal,
            quantity,
            level=request.level,
            backend=backend,
        )
    return plans


def expand_coupled_takes(
    request: MultiResourceRequest, plans: dict[str, Allocation]
) -> dict[str, dict[str, float]]:
    """Expand bundle-unit takes into constituent resource quantities.

    Returns ``{principal: {constituent_resource: quantity}}`` summed over
    all coupled types in the request — the physical footprint each donor
    machine must reserve.
    """
    by_name = {c.name: c for c in request.coupled}
    out: dict[str, dict[str, float]] = {}
    for rtype, plan in plans.items():
        bundle = by_name.get(rtype)
        if bundle is None:
            continue
        for principal, units in plan.takes_by_name().items():
            footprint = bundle.expand(units)
            slot = out.setdefault(principal, {})
            for res, qty in footprint.items():
                slot[res] = slot.get(res, 0.0) + qty
    return out
