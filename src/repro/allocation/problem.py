"""Request and result types for the allocation engine.

:meth:`Allocation.finalize` is the one epilogue every allocator ends
with: it derives the post-allocation state from the takes, runs the
sanitizer's postconditions, and records the outcome on the flight
recorder's in-flight decision (which exists only while observability
is enabled).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .. import sanitize as _sanitize
from ..obs.decision import current_decision

if TYPE_CHECKING:
    from ..agreements.topology import CapacityView

__all__ = ["AllocationRequest", "Allocation"]


def _agreement_bound(view: CapacityView, a: int, level: int | None) -> np.ndarray:
    """Constraint (4)'s take bounds for requester ``a``: ``U[k, A]``, which
    is already clamped at ``V_k``, for a donor ``k`` and ``V_A`` for the
    requester.  They sum to ``C_A``."""
    bound = view.u(level)[:, a].copy()
    bound[a] = view.V[a]
    return bound


@dataclass(frozen=True)
class AllocationRequest:
    """A request by ``principal`` for ``amount`` of one resource.

    ``level`` limits the transitivity of agreements considered (``None`` =
    full closure ``n-1``; ``1`` = direct agreements only, matching the
    "level=1" series of Figures 8–11).
    """

    principal: str
    amount: float
    level: int | None = None

    def __post_init__(self) -> None:
        if not self.amount >= 0:  # also rejects NaN
            raise ValueError(f"request amount must be >= 0, got {self.amount}")


@dataclass
class Allocation:
    """Result of an allocation decision.

    Attributes
    ----------
    request:
        The request this answers.
    take:
        ``take[i]`` = quantity drawn from principal ``i``'s raw resources
        (``V_i - V'_i`` in the paper); sums to the satisfied amount.
    theta:
        Value of the perturbation metric at the optimum (``nan`` for
        allocators that do not optimise it).
    satisfied:
        Total amount granted (== request.amount unless partial).
    new_V:
        Raw capacities after the allocation (``V'``).
    new_C:
        Effective capacities after the allocation (``C'``), recomputed from
        ``V'`` at the request's transitivity level.
    scheme:
        Which allocator produced this (``"lp"``, ``"endpoint"``, ...).
    principals:
        Names matching the vector indices.
    """

    request: AllocationRequest
    take: np.ndarray
    theta: float
    satisfied: float
    new_V: np.ndarray
    new_C: np.ndarray
    scheme: str
    principals: list[str] = field(default_factory=list)

    @classmethod
    def finalize(
        cls,
        view: CapacityView,
        request: AllocationRequest,
        take: np.ndarray,
        scheme: str,
        *,
        satisfied: float | None = None,
        theta: float | None = None,
    ) -> Allocation:
        """Build the result of drawing ``take`` from ``view``'s capacities.

        ``new_V = max(V - take, 0)`` and ``new_C`` is recomputed from it at
        the request's transitivity level.  ``satisfied`` defaults to the
        sum of the takes and ``theta`` to the largest capacity drop among
        non-requesters; optimising allocators pass their solver's values
        instead.  The sanitizer's postconditions, constraint (4) included,
        run on the result, and an in-flight decision records the outcome,
        donor split, theta and ``C'``.
        """
        level = request.level
        new_V = np.maximum(view.V - take, 0.0)
        new_C = view.topology.capacities(new_V, level)
        if theta is None:
            before = view.capacities(level)
            drops = np.delete(before - new_C, view.index(request.principal))
            theta = float(drops.max()) if drops.size else 0.0
        principals = view.principals
        allocation = cls(
            request=request,
            take=take,
            theta=theta,
            satisfied=float(take.sum()) if satisfied is None else float(satisfied),
            new_V=new_V,
            new_C=new_C,
            scheme=scheme,
            principals=principals,
        )
        if _sanitize.enabled():
            bound = _agreement_bound(view, view.index(request.principal), level)
            _sanitize.check_allocation(view.capacities(level), allocation, bound)
        dec = current_decision()
        if dec is not None:
            dec.set(
                outcome="granted",
                granted=allocation.satisfied,
                takes=tuple((p, float(t)) for p, t in zip(principals, take) if t > 1e-12),
                theta=float(theta),
                capacities_after=dict(zip(principals, new_C.tolist())),
            )
        return allocation

    @property
    def local_take(self) -> float:
        """Amount drawn from the requester's own resources."""
        return float(self.take[self.principals.index(self.request.principal)])

    def takes_by_name(self) -> dict[str, float]:
        """Non-zero takes keyed by principal name."""
        return {
            p: float(t)
            for p, t in zip(self.principals, self.take)
            if t > 1e-12
        }

    def __repr__(self) -> str:
        takes = ", ".join(f"{p}:{t:.3g}" for p, t in self.takes_by_name().items())
        return (
            f"Allocation({self.request.principal!r} x={self.request.amount:g} "
            f"via {self.scheme}: [{takes}] theta={self.theta:.3g})"
        )
