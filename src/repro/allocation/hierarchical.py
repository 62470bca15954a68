"""Multigrid refinement for hierarchical agreement structures (Section 3.2).

"In the case of a hierarchical agreement structure, we can use techniques
motivated by multi-grid refinement: once a request comes to a group, and
that group cannot satisfy the request, we use LP to find the distribution
of resources among groups; based on the distribution result, we run LP
inside each group to further refine the resource allocation."

The coarse level treats each group as a super-principal: its raw capacity
is the sum of member capacities, and the coarse share from group ``g`` to
group ``h`` is the capacity-weighted aggregate of member-to-member shares
(an upper-level approximation — refinement inside each donor group then
respects the member-level bounds exactly).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..agreements.topology import AgreementTopology, CapacityView
from ..errors import AllocationError, InsufficientResourcesError
from ..lp import solve
from ..obs import get_observer
from ..obs.decision import current_decision
from .lp_allocator import allocate_lp, min_theta_lp, take_blocks
from .problem import Allocation, AllocationRequest

__all__ = ["allocate_hierarchical", "coarsen"]

_TOL = 1e-9


def coarsen(system: CapacityView, groups: Sequence[Sequence[int]]) -> CapacityView:
    """Aggregate a member-level system into a group-level system.

    ``V_g = sum_{i in g} V_i`` and
    ``S_gh = sum_{i in g, j in h} S_ij V_i / V_g`` (capacity-weighted mean
    outgoing share; 0 for an empty group).  Intra-group agreements do not
    appear at the coarse level.
    """
    ng = len(groups)
    Vg = np.array([system.V[list(g)].sum() for g in groups])
    Sg = np.zeros((ng, ng))
    for gi, g in enumerate(groups):
        if Vg[gi] <= _TOL:
            continue
        for hi, h in enumerate(groups):
            if gi == hi:
                continue
            Sg[gi, hi] = sum(
                system.S[i, j] * system.V[i] for i in g for j in h
            ) / Vg[gi]
    names = [f"group{gi}" for gi in range(ng)]
    return CapacityView.from_matrices(names, Vg, Sg)


def _group_topology(system: CapacityView, idx: np.ndarray) -> AgreementTopology:
    """Member-level structure restricted to one group (intra-group edges
    only); each round views it at its own capacities."""
    return AgreementTopology(
        [system.principals[i] for i in idx],
        system.S[np.ix_(idx, idx)],
        None if system.A is None else system.A[np.ix_(idx, idx)],
    )


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
    """Multigrid allocation on a hierarchical structure.

    1. Try to satisfy the request entirely inside the requester's group
       (one small LP).
    2. Otherwise allocate at the coarse (group) level, refine each donor
       group's contribution with an intra-group LP, and — because the
       coarse level may overestimate what a group can actually hand to the
       requesting member — *iterate* on any shortfall with updated member
       capacities, exactly the paper's "iterating this process as
       required".

    ``groups`` defaults to the ``system.topology.groups`` partition set by
    :func:`repro.agreements.structures.hierarchical_structure`.

    Raises :class:`~repro.errors.InsufficientResourcesError` (with the
    amount actually deliverable) if iteration stalls short of the request
    and ``partial`` is False.
    """
    if groups is None:
        groups = system.topology.groups
    if groups is None:
        raise AllocationError(
            "hierarchical allocation needs a group partition; pass groups= "
            "or use a system built by hierarchical_structure()"
        )
    a = system.index(principal)
    home = next((gi for gi, g in enumerate(groups) if a in g), None)
    if home is None:
        raise AllocationError(f"principal {principal!r} is not in any group")

    n = system.n
    request = AllocationRequest(principal, amount, level)
    x = float(amount)
    take = np.zeros(n)
    obs = get_observer()
    span = obs.span(
        "allocation.hierarchical", principal=principal, amount=x,
        groups=len(groups),
    )

    # Fast path: the whole request fits inside the requester's group.
    with span:
        # One topology per group and call, so one coefficient DP per group.
        idx = [np.asarray(g) for g in groups]
        topologies = [_group_topology(system, members) for members in idx]
        local_sys = topologies[home].view(system.V[idx[home]])
        local_cap = local_sys.capacity_of(principal, level)
        if x <= local_cap + _TOL:
            span.set(path="local")
            plan = allocate_lp(local_sys, principal, x, level=level, backend=backend)
            for m, t in zip(groups[home], plan.take):
                take[m] = t
            return Allocation.finalize(system, request, take, "hierarchical", satisfied=x)

        remaining = x
        current = system
        rounds = 0
        for _iteration in range(len(groups) + 2):
            if remaining <= _TOL:
                break
            rounds += 1
            coarse = coarsen(current, groups)
            # The home group's deliverable capacity is what the requester can
            # actually reach through intra-group agreements, not the raw member
            # sum — otherwise the coarse LP keeps "allocating" locally work that
            # refinement cannot extract.
            home_deliverable = topologies[home].view(
                current.V[idx[home]]
            ).capacity_of(principal, level)
            Vc = coarse.V.copy()
            Vc[home] = home_deliverable
            coarse = coarse.with_capacities(Vc)
            coarse_cap = coarse.capacity_of(f"group{home}", level)
            ask = min(remaining, coarse_cap)
            if ask <= _TOL:
                break
            coarse_plan = allocate_lp(
                coarse, f"group{home}", ask, level=level, backend=backend,
                partial=True,
            )
            round_take = np.zeros(n)
            for gi, contribution in enumerate(coarse_plan.take):
                if contribution <= _TOL:
                    continue
                members = groups[gi]
                sub = topologies[gi].view(current.V[idx[gi]])
                if gi == home:
                    plan = allocate_lp(
                        sub, principal, float(contribution), level=level,
                        backend=backend, partial=True,
                    )
                    member_take = plan.take
                else:
                    member_take = _spread_within(sub, float(contribution), backend)
                for m, t in zip(members, member_take):
                    round_take[m] += t
            got = float(round_take.sum())
            if got <= _TOL:
                break  # stalled: nothing more is extractable
            take += round_take
            remaining -= got
            current = current.with_capacities(np.maximum(current.V - round_take, 0.0))

        satisfied = float(take.sum())
        if obs.enabled:
            donors = int(np.count_nonzero(take > _TOL))
            obs.histogram("allocation.hierarchical.rounds", rounds)
            obs.histogram("allocation.donors", donors)
            span.set(path="multigrid", rounds=rounds, donors=donors,
                     satisfied=satisfied)
            dec = current_decision()
            if dec is not None:
                # The refinement round count is evidence the opener of
                # the decision (GRM or policy) cannot see from outside.
                dec.set(multigrid_rounds=rounds)
        if remaining > 1e-6 and not partial:
            # Undo nothing — this is a pure planning function; just report.
            span.set(available=satisfied)
            raise InsufficientResourcesError(principal, x, satisfied)
    return Allocation.finalize(
        system, request, take, "hierarchical", satisfied=satisfied
    )


def _spread_within(sub: CapacityView, contribution: float, backend: str) -> np.ndarray:
    """Spread a donor group's contribution over members, minimising the
    maximum member drop (a small LP with an exogenous sink: every member's
    drop is a row and each take is bounded by the member's ``V`` alone)."""
    k = sub.n
    contribution = min(contribution, float(sub.V.sum()))
    blocks = take_blocks(0, sub.V, None, sub.coefficients(), np.arange(k))
    res = solve(*min_theta_lp(contribution, *blocks), backend=backend, model="refine")
    if not res.ok:  # pragma: no cover - bounded by construction
        raise AllocationError(f"group refinement LP {res.status.value}")
    return np.clip(res.x[:k], 0.0, None)
