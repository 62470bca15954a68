"""Multiple views of the same resource (Section 2.2's future-work extension).

"This mechanism can be extended to handle multiple views of the same
resources by enabling resources backing multiple ticket types.  This is
useful in several situations.  For example, the disk bandwidth resource
can be viewed as two kinds of resources: read bandwidth and write
bandwidth."

A *view set* declares that several ticket types (views) draw on one
underlying physical resource: each view has its own agreement system
(its own ``S`` matrix — read and write bandwidth can be shared on
different terms), but the donors' *combined* take across views is bounded
by the underlying capacity.  Solving the views independently could
over-commit a donor, so :func:`allocate_views` builds one joint LP:

    minimise   theta
    subject to sum_k d[v, k]            = x_v        for each view v
               d[v, k]                 <= U_v[k, A]  (flow bound per view)
               sum_v d[v, k]           <= base_V[k]  (shared physical bound)
               drop_i = max over views of per-view capacity drop <= theta
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AllocationError, InsufficientResourcesError
from ..lp import LinearProgram
from .problem import Allocation, AllocationRequest

__all__ = ["ViewSet", "allocate_views"]


@dataclass(frozen=True)
class ViewSet:
    """Several agreement systems (views) over one physical resource.

    ``systems`` maps view name -> :class:`~repro.agreements.CapacityView`;
    all must share the same principal list.  ``base_capacity`` is the
    underlying physical capacity per principal that all views jointly
    consume; each view's own ``V`` bounds what that view may see, but the
    sum across views is bounded by the base.
    """

    name: str
    systems: dict
    base_capacity: np.ndarray

    def __post_init__(self) -> None:
        if not self.systems:
            raise AllocationError(f"view set {self.name!r} has no views")
        principal_lists = {tuple(s.principals) for s in self.systems.values()}
        if len(principal_lists) != 1:
            raise AllocationError(
                f"view set {self.name!r}: all views must share one principal list"
            )
        base = np.asarray(self.base_capacity, dtype=float)
        n = next(iter(self.systems.values())).n
        if base.shape != (n,):
            raise AllocationError(
                f"view set {self.name!r}: base capacity must have length {n}"
            )
        if np.any(base < 0):
            raise AllocationError("base capacity must be non-negative")
        object.__setattr__(self, "base_capacity", base)

    @property
    def principals(self) -> list[str]:
        return list(next(iter(self.systems.values())).principals)


def allocate_views(
    viewset: ViewSet,
    principal: str,
    amounts: dict[str, float],
    *,
    level: int | None = None,
    backend: str = "scipy",
) -> dict[str, Allocation]:
    """Jointly allocate requests over several views of one resource.

    ``amounts`` maps view name -> requested quantity.  Returns one
    :class:`~repro.allocation.problem.Allocation` per requested view whose
    takes respect both the per-view flow bounds and the shared physical
    capacity.

    Raises :class:`~repro.errors.InsufficientResourcesError` when the
    joint program is infeasible (per-view capacity fine but base capacity
    over-committed counts as insufficient).
    """
    unknown = set(amounts) - set(viewset.systems)
    if unknown:
        raise AllocationError(f"unknown views {sorted(unknown)}")
    views = [v for v, x in amounts.items() if x > 0]
    if not views:
        return {}
    some_system = viewset.systems[views[0]]
    n = some_system.n
    a = some_system.index(principal)

    # Quick per-view capacity screen for a friendly error message.
    for v in views:
        cap = viewset.systems[v].capacity_of(principal, level)
        if amounts[v] > cap + 1e-9:
            raise InsufficientResourcesError(principal, amounts[v], cap)

    lp = LinearProgram(f"views-{viewset.name}")
    d = {}
    for v in views:
        system = viewset.systems[v]
        U = system.u(level)
        for k in range(n):
            ub = system.V[a] if k == a else min(U[k, a], system.V[k])
            d[v, k] = lp.variable(f"d_{v}_{k}", lower=0.0, upper=float(ub))
    theta = lp.variable("theta", lower=0.0)

    # Per-view totals.
    for v in views:
        total = d[v, 0] * 1.0
        for k in range(1, n):
            total = total + d[v, k]
        lp.add_constraint(total == float(amounts[v]), name=f"total_{v}")

    # Shared physical capacity per donor.
    for k in range(n):
        joint = d[views[0], k] * 1.0
        for v in views[1:]:
            joint = joint + d[v, k]
        lp.add_constraint(joint <= float(viewset.base_capacity[k]), name=f"base_{k}")

    # Perturbation: per-view capacity drops of other principals.
    for v in views:
        T = viewset.systems[v].coefficients(level)
        for i in range(n):
            if i == a:
                continue
            drop = d[v, i] * 1.0
            for k in range(n):
                if k != i and T[k, i] != 0.0:
                    drop = drop + d[v, k] * float(T[k, i])
            lp.add_constraint(drop <= theta, name=f"drop_{v}_{i}")

    lp.minimize(theta)
    res = lp.solve(backend=backend)
    if not res.ok:
        # The joint base-capacity constraint is the only coupling, so an
        # infeasible joint program means the base resource is the binding
        # shortage.
        raise InsufficientResourcesError(
            principal,
            float(sum(amounts[v] for v in views)),
            float(viewset.base_capacity.sum()),
        )

    return {
        v: Allocation.finalize(
            viewset.systems[v],
            AllocationRequest(principal, float(amounts[v]), level),
            np.array([max(res[f"d_{v}_{k}"], 0.0) for k in range(n)]),
            f"views:{v}",
            theta=float(res.objective),
        )
        for v in views
    }
