"""Multigrid refinement for hierarchical agreement structures (Section 3.2).

"In the case of a hierarchical agreement structure, we can use techniques
motivated by multi-grid refinement: once a request comes to a group, and
that group cannot satisfy the request, we use LP to find the distribution
of resources among groups; based on the distribution result, we run LP
inside each group to further refine the resource allocation."

The coarse level treats each group as a super-principal: its raw capacity
is the sum of member capacities, and the coarse share from group ``g`` to
group ``h`` is the capacity-weighted aggregate of member-to-member shares
(an upper-level approximation that shapes the coarse LP's objective).
What a group may give is its *budget*: the sum of its members'
constraint-(4) bounds ``U[k, A]`` (``V_A`` for the requester).  The
budgets sum to ``C_A``, and each group's in-group LP bounds every member
by its own entry, so every refine is feasible and no take ever exceeds
what the agreements allow.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..agreements.topology import AgreementTopology, CapacityView
from ..errors import AllocationError
from ..obs import get_observer
from .lp_allocator import _solve_min_theta, allocate_lp, min_theta_lp
from .problem import Allocation, _admit, _agreement_bound

__all__ = ["allocate_hierarchical", "coarsen"]

_TOL = 1e-9


def _members(groups: Sequence[Sequence[int]], n: int) -> list[np.ndarray]:
    """``groups`` as index arrays, checked to partition ``0 .. n-1``."""
    idx = [np.asarray(g, dtype=int).reshape(-1) for g in groups]
    every = np.concatenate(idx) if idx else np.zeros(0, dtype=int)
    if every.size and (every.min() < 0 or every.max() >= n):
        bad = every[(every < 0) | (every >= n)][0]
        raise AllocationError(f"group index {bad} is outside 0..{n - 1}")
    counts = np.bincount(every, minlength=n)
    if np.any(counts != 1):
        k = int(np.flatnonzero(counts != 1)[0])
        where = "more than one group" if counts[k] else "no group"
        raise AllocationError(
            f"groups must partition the principals: index {k} is in {where}"
        )
    return idx


def coarsen(system: CapacityView, groups: Sequence[Sequence[int]]) -> CapacityView:
    """Aggregate a member-level system into a group-level system.

    ``V_g = sum_{i in g} V_i`` and
    ``S_gh = sum_{i in g, j in h} S_ij V_i / V_g`` (capacity-weighted mean
    outgoing share; 0 for an empty group).  Intra-group agreements do not
    appear at the coarse level.  ``groups`` must partition the principals.
    """
    idx = _members(groups, system.n)
    M = np.zeros((len(idx), system.n))  # group membership
    for gi, members in enumerate(idx):
        M[gi, members] = 1.0
    Vg = M @ system.V
    Sg = M @ (system.V[:, None] * system.S) @ M.T
    np.fill_diagonal(Sg, 0.0)
    live = Vg > _TOL
    Sg[live] /= Vg[live, None]
    Sg[~live] = 0.0
    names = [f"group{gi}" for gi in range(len(idx))]
    return CapacityView.from_matrices(names, Vg, Sg)


def allocate_hierarchical(
    system: CapacityView,
    principal: str,
    amount: float,
    *,
    groups: Sequence[Sequence[int]] | None = None,
    level: int | None = None,
    backend: str = "simplex",
    partial: bool = False,
) -> Allocation:
    """Multigrid allocation on a hierarchical structure, in one pass.

    1. If the requester's group covers the request through its own
       agreements, solve one LP on that group.
    2. Otherwise solve one coarse LP that splits the request among the
       groups, each capped by its budget (its members' constraint-(4)
       bounds summed), then one LP per contributing group that spreads
       its share over the members under their bounds.

    ``groups`` defaults to the ``system.topology.groups`` partition set by
    :func:`repro.agreements.structures.hierarchical_structure`; it must
    partition the principals, else :class:`~repro.errors.AllocationError`.

    Admission is :func:`~repro.allocation.lp_allocator.allocate_lp`'s,
    applied before either route: a request above ``C_A + 1e-7`` raises
    :class:`~repro.errors.InsufficientResourcesError` quoting ``C_A``, or
    is granted ``C_A`` with ``partial=True``, and no grant exceeds ``C_A``.
    """
    if groups is None:
        groups = system.topology.groups
    if groups is None:
        raise AllocationError(
            "hierarchical allocation needs a group partition; pass groups= "
            "or use a system built by hierarchical_structure()"
        )
    idx = _members(groups, system.n)
    a = system.index(principal)
    home = next(gi for gi, members in enumerate(idx) if a in members)

    take = np.zeros(system.n)
    obs = get_observer()
    with obs.span(
        "allocation.hierarchical", principal=principal, amount=float(amount), groups=len(idx)
    ) as span:
        request, x = _admit(system, principal, amount, level, partial)
        # One topology per group and call, so one coefficient DP per group.
        topologies = [_group_topology(system, members) for members in idx]
        local = topologies[home].view(system.V[idx[home]])
        if x <= local.capacity_of(principal, level) + _TOL:
            span.set(path="local")
            take[idx[home]] = allocate_lp(
                local, principal, x, level=level, backend=backend
            ).take
            return Allocation.finalize(system, request, take, "hierarchical", satisfied=x)

        bound = _agreement_bound(system, a, level)
        budgets = np.array([bound[members].sum() for members in idx])
        coarse = coarsen(system, idx).coefficients(level)
        others = np.delete(np.arange(len(idx)), home)
        split = _min_theta(x, coarse, others, budgets, backend, "coarse")
        for gi, members in enumerate(idx):
            if split[gi] > _TOL:
                take[members] = _min_theta(
                    split[gi], topologies[gi].coefficients(level),
                    np.flatnonzero(members != a), bound[members], backend, "refine",
                )
        if obs.enabled:
            donors = int(np.count_nonzero(take > _TOL))
            obs.histogram("allocation.donors", donors)
            span.set(path="multigrid", donors=donors, satisfied=x)
    return Allocation.finalize(system, request, take, "hierarchical", satisfied=x)


def _group_topology(system: CapacityView, idx: np.ndarray) -> AgreementTopology:
    """Member-level structure restricted to one group (intra-group edges
    only)."""
    return AgreementTopology(
        [system.principals[i] for i in idx],
        system.S[np.ix_(idx, idx)],
        None if system.A is None else system.A[np.ix_(idx, idx)],
    )


def _min_theta(x, T, rows, ub, backend, model):
    """Takes summing to ``x`` within ``ub`` that minimise the largest drop
    among ``rows``.  Admission keeps ``x`` within ``C_A``, and the coarse
    split within each budget, so the LP is feasible up to the round-off
    between ``sum(ub)`` and ``x`` that the ``min`` absorbs."""
    arrays = min_theta_lp(min(x, float(ub.sum())), T, rows, ub)
    res = _solve_min_theta(arrays, backend, model)
    return np.clip(res.x[: len(ub)], 0.0, ub)
