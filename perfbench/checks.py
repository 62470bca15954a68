"""Output checks that do not trust the LP solver.

Every allocation the benchmark receives is re-derived from its inputs: the
availability vector ``V`` the client reported, the requester ``A``, the
amount, and the transitive coefficients ``T`` of the agreement set in force.
From those alone (``U_kA = min(V_k T_kA, V_k)``, ``C_A = V_A + sum_k U_kA``)
the checks confirm that

- a denial quoted ``C_A`` and the amount really exceeded it;
- a grant's takes sum to the granted amount, each donor's take is at most
  ``min(U[i, A], V_i)`` and the requester's at most ``V_A``;
- theta recomputed from the takes, ``max_{i != A} d_i + sum_k d_k T_ki``,
  matches the theta the GRM replied with.

:func:`faithful_theta` re-solves a request with the paper's full
``n^2 + n + 1``-variable formulation; the traced run compares a sample of
decisions against it, which checks optimality as well as feasibility.
"""

from __future__ import annotations

import numpy as np


def _tol(scale: float) -> float:
    return 1e-6 * max(1.0, abs(scale))


def inflow_bounds(V: np.ndarray, T: np.ndarray) -> np.ndarray:
    """``U_ki = min(V_k T_ki, V_k)`` with a zero diagonal (no absolute agreements)."""
    U = np.minimum(V[:, None] * T, V[:, None])
    np.fill_diagonal(U, 0.0)
    return U


def theta_of(take: np.ndarray, a: int, T: np.ndarray) -> float:
    """Largest capacity drop among non-requesters caused by ``take``."""
    drops = take + take @ T
    return float(np.max(np.delete(drops, a)))


def check_grant(V, T, a, amount, take, theta) -> str | None:
    """``None`` if the grant is consistent with its inputs, else the reason."""
    U = inflow_bounds(V, T)
    cap = V[a] + U[:, a].sum()
    tol = _tol(amount)
    if amount > cap + tol:
        return f"granted {amount:g} above capacity {cap:g}"
    if abs(take.sum() - amount) > tol:
        return f"takes sum to {take.sum():g}, granted {amount:g}"
    bound = np.minimum(U[:, a], V)
    bound[a] = V[a]
    if np.any(take < -tol) or np.any(take > bound + tol):
        return "a take is negative or above min(U[i, A], V_i)"
    recomputed = theta_of(take, a, T)
    if theta is not None and abs(recomputed - theta) > _tol(theta):
        return f"theta {theta:g} but takes imply {recomputed:g}"
    return None


def check_denial(V, T, a, amount, quoted) -> str | None:
    U = inflow_bounds(V, T)
    cap = V[a] + U[:, a].sum()
    if abs(quoted - cap) > _tol(cap):
        return f"denial quoted {quoted:g}, capacity is {cap:g}"
    if amount <= cap + _tol(amount):
        return f"denied {amount:g} within capacity {cap:g}"
    return None


def check_plan(V, T, a, excess, take) -> str | None:
    """A proxysim plan: the excess is conserved, donors respect their
    bounds and the placed part is ``min(excess, C_A)`` (partial grant)."""
    V = np.maximum(V, 0.0)
    U = inflow_bounds(V, T)
    placed = min(excess, V[a] + U[:, a].sum())
    donors = take.copy()
    donors[a] = 0.0
    if abs(take.sum() - excess) > _tol(excess):
        return f"plan moves {take.sum():g} of excess {excess:g}"
    if abs(donors.sum() - placed) > _tol(excess):
        return f"plan places {donors.sum():g}, the agreements allow {placed:g}"
    return check_grant(V, T, a, placed, donors, None)


def faithful_theta(topology, V, principal, amount, partial=False) -> float:
    """Theta from the paper's full formulation, solved independently of the
    hot path's reduced arrays."""
    from repro.allocation.lp_allocator import allocate_lp

    allocation = allocate_lp(
        topology.view(V), principal, amount, formulation="faithful", partial=partial
    )
    return float(allocation.theta)


def thetas_agree(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-5 * max(1.0, abs(a), abs(b))
