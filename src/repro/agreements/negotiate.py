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
from ..lp import LinearProgram
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

    lp = LinearProgram("negotiate-shares")
    s = {}
    for i in range(n):
        for j in range(n):
            if i != j and allowed[i, j] and V[i] > 0:
                s[i, j] = lp.variable(
                    f"s_{i}_{j}", lower=0.0, upper=float(max_edge_share)
                )

    # Capacity targets: V_i + sum_k V_k s_ki >= target_i.
    for i in range(n):
        need = float(targets[i] - V[i])
        if need <= 0:
            continue
        inflow_vars = [(k, s[k, i]) for k in range(n) if (k, i) in s]
        if not inflow_vars:
            raise InfeasibleAllocationError(
                f"principal {principals[i]!r} needs {need:g} more capacity "
                "but no inbound agreement is allowed"
            )
        expr = inflow_vars[0][1] * float(V[inflow_vars[0][0]])
        for k, var in inflow_vars[1:]:
            expr = expr + var * float(V[k])
        lp.add_constraint(expr >= need, name=f"target_{i}")

    # Row sums: sum_j s_ij <= max_share_out.
    for i in range(n):
        out_vars = [s[i, j] for j in range(n) if (i, j) in s]
        if not out_vars:
            continue
        expr = out_vars[0] * 1.0
        for var in out_vars[1:]:
            expr = expr + var
        lp.add_constraint(expr <= float(max_share_out), name=f"rowsum_{i}")

    # Objective: total committed capacity.
    if s:
        items = list(s.items())
        obj = items[0][1] * float(V[items[0][0][0]])
        for (i, _j), var in items[1:]:
            obj = obj + var * float(V[i])
        lp.minimize(obj)

    result = lp.solve(backend=backend)
    if not result.ok:
        raise InfeasibleAllocationError(
            "no agreement matrix meets the requested capacity targets "
            f"(LP status: {result.status.value})"
        )
    S = np.zeros((n, n))
    for (i, j), var in s.items():
        S[i, j] = max(result[var.name], 0.0)
    return CapacityView.from_matrices(
        principals, V, S, allow_overdraft=max_share_out > 1.0
    )
