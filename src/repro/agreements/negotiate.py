"""Negotiation support: derive agreements from capacity targets.

The paper's machinery answers "given these agreements, what can each
principal use?"  Operators face the inverse question when drafting
agreements: *which shares do we need so that every participant's
effective capacity meets its target?*  :func:`suggest_shares` solves the
direct-agreement (level-1) version as a linear program:

    minimise   sum_{ij} V_i * S_ij          (total capacity committed)
    subject to V_i + sum_k V_k * S_ki >= target_i     for every i
               sum_j S_ij <= max_share_out            for every i
               0 <= S_ij <= cap, only on allowed edges

Restricting to level 1 keeps the problem linear (transitive flows are
products of shares) and is conservative: any chains that arise only add
capacity on top of the guaranteed direct flows.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import AgreementError, InfeasibleAllocationError
from ..lp import solve
from .topology import CapacityView

__all__ = ["suggest_shares"]


def suggest_shares(
    principals: Sequence[str],
    V: np.ndarray,
    targets: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    max_share_out: float = 1.0,
    max_edge_share: float = 1.0,
    backend: str = "scipy",
) -> CapacityView:
    """Find a minimal relative agreement matrix meeting capacity targets.

    Parameters
    ----------
    principals, V:
        Names and raw capacities.
    targets:
        Required effective capacity per principal (level-1 guarantee).
    allowed:
        Optional boolean matrix; ``allowed[i, j]`` permits an agreement
        from ``i`` to ``j``.  Defaults to everything off-diagonal
        (a complete negotiation).
    max_share_out:
        Cap on each principal's total outgoing share (the paper's
        row-sum <= 1 constraint by default).
    max_edge_share:
        Cap on a single agreement's share.

    Returns
    -------
    CapacityView
        With the suggested ``S``; total committed capacity is minimal.

    Raises
    ------
    InfeasibleAllocationError
        If no agreement matrix can meet the targets (e.g. total targets
        exceed total capacity).
    """
    principals = list(principals)
    n = len(principals)
    V = np.asarray(V, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if V.shape != (n,) or targets.shape != (n,):
        raise AgreementError("V and targets must both have one entry per principal")
    if allowed is None:
        allowed = ~np.eye(n, dtype=bool)
    allowed = np.asarray(allowed, dtype=bool)
    if allowed.shape != (n, n):
        raise AgreementError(f"allowed must be {n}x{n}")

    # One variable s_ij per permitted edge out of a principal with capacity,
    # in row-major order.
    src, dst = np.nonzero(allowed & ~np.eye(n, dtype=bool) & (V > 0)[:, None])

    # Capacity targets, negated to <= rows: -sum_k V_k s_ki <= V_i - target_i.
    need = targets - V
    short = np.flatnonzero(need > 0)
    inflow = short[:, None] == dst
    stranded = short[~inflow.any(axis=1)]
    if stranded.size:
        i = stranded[0]
        raise InfeasibleAllocationError(
            f"principal {principals[i]!r} needs {float(need[i]):g} more capacity "
            "but no inbound agreement is allowed"
        )
    # Row sums: sum_j s_ij <= max_share_out, for each principal with an edge.
    senders = np.unique(src)
    A_ub = np.vstack([np.where(inflow, -V[src], 0.0), senders[:, None] == src])
    b_ub = np.concatenate([-need[short], np.full(len(senders), float(max_share_out))])

    # Objective: total committed capacity.
    result = solve(
        V[src], A_ub, b_ub, np.zeros((0, len(src))), np.zeros(0),
        [(0.0, float(max_edge_share))] * len(src),
        backend=backend, model="negotiate-shares",
    )
    if not result.ok:
        raise InfeasibleAllocationError(
            "no agreement matrix meets the requested capacity targets "
            f"(LP status: {result.status.value})"
        )
    S = np.zeros((n, n))
    S[src, dst] = np.clip(result.x, 0.0, None)
    return CapacityView.from_matrices(
        principals, V, S, allow_overdraft=max_share_out > 1.0
    )
