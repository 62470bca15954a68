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
from ..lp import solve
from .lp_allocator import take_blocks
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

    # Variables [d[v0, 0..n-1], d[v1, 0..n-1], ..., theta]: one block of
    # takes per view.  Rows: each view's total; then the shared base
    # capacity per donor; then each view's drop rows for i != A.
    others = np.delete(np.arange(n), a)
    blocks = [
        take_blocks(a, s.V, s.u(level), s.coefficients(level), others)
        for s in (viewset.systems[v] for v in views)
    ]
    k, r = len(views), n - 1
    A_eq = np.zeros((k, k * n + 1))
    A_drop = np.zeros((k * r, k * n + 1))
    for i, (drops, total, _ub) in enumerate(blocks):
        cols = slice(i * n, (i + 1) * n)
        A_eq[i, cols] = total
        A_drop[i * r:(i + 1) * r, cols] = drops
    A_drop[:, -1] = -1.0
    A_base = np.zeros((n, k * n + 1))
    A_base[:, :-1] = np.tile(np.eye(n), k)
    c = np.zeros(k * n + 1)
    c[-1] = 1.0
    ub = np.concatenate([view_ub for _drops, _total, view_ub in blocks])
    res = solve(
        c,
        np.vstack([A_base, A_drop]),
        np.concatenate([viewset.base_capacity, np.zeros(k * r)]),
        A_eq,
        np.array([float(amounts[v]) for v in views]),
        [(0.0, u) for u in ub.tolist()] + [(0.0, None)],
        backend=backend,
        model=f"views-{viewset.name}",
    )
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
            np.clip(res.x[i * n:(i + 1) * n], 0.0, None),
            f"views:{v}",
            theta=float(res.objective),
        )
        for i, v in enumerate(views)
    }
