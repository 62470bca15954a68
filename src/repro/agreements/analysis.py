"""Analysis utilities over agreement systems.

Answers the operational questions a deployment of this scheme raises:
which principals can reach which resources (and through whom), how
exposed is a donor to its beneficiaries, and how balanced is the
structure overall.  Used by the examples and handy for debugging
agreement graphs.

Every function takes a :class:`~repro.agreements.topology.CapacityView`,
so analyses run equally against a structure built from matrices or a
live view minted from a bank's cached topology
(:meth:`repro.economy.Bank.capacity_view`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import CapacityView

__all__ = [
    "reachable_set",
    "donor_set",
    "exposure",
    "dependency",
    "chain_contributions",
    "StructureSummary",
    "summarize",
]

_TOL = 1e-12


def reachable_set(
    system: CapacityView, principal: str, level: int | None = None
) -> dict[str, float]:
    """Donors whose resources ``principal`` can draw on, with amounts.

    Returns ``{donor: available_flow}`` for every donor with positive
    ``U[donor, principal]`` at the given transitivity level.
    """
    a = system.index(principal)
    U = system.u(level)
    return {
        system.principals[k]: float(U[k, a])
        for k in range(system.n)
        if k != a and U[k, a] > _TOL
    }


def donor_set(
    system: CapacityView, principal: str, level: int | None = None
) -> dict[str, float]:
    """Beneficiaries that can draw on ``principal``'s resources.

    Returns ``{beneficiary: flow}`` — the outgoing row of ``U``.
    """
    a = system.index(principal)
    U = system.u(level)
    return {
        system.principals[j]: float(U[a, j])
        for j in range(system.n)
        if j != a and U[a, j] > _TOL
    }


def exposure(system: CapacityView, principal: str, level: int | None = None) -> float:
    """Fraction of ``principal``'s raw capacity promised to others.

    1.0 means every unit it owns is (transitively) claimable by someone;
    ``U`` is clamped at ``V``, so it never exceeds 1.0.
    """
    a = system.index(principal)
    if system.V[a] <= _TOL:
        return 0.0
    outgoing = max(system.u(level)[a].max(), 0.0)
    return float(outgoing / system.V[a])


def dependency(system: CapacityView, principal: str, level: int | None = None) -> float:
    """Fraction of ``principal``'s effective capacity that is borrowed.

    0 means fully self-sufficient; close to 1 means nearly everything it
    can use belongs to someone else (like principal D in Example 1).
    """
    a = system.index(principal)
    C = system.capacities(level)[a]
    if C <= _TOL:
        return 0.0
    return float(1.0 - system.V[a] / C)


def chain_contributions(
    system: CapacityView, donor: str, beneficiary: str, max_level: int | None = None
) -> list[tuple[int, float]]:
    """Per-level breakdown of the flow coefficient from donor to beneficiary.

    Returns ``[(level, marginal_T)]`` where ``marginal_T`` is the
    coefficient added by chains of exactly that length — showing how much
    of an agreement is direct vs transitive (the paper notes the
    "exponential decrease in the amount of resources accessible along the
    chain").
    """
    i, j = system.index(donor), system.index(beneficiary)
    top = system.max_level if max_level is None else min(max_level, system.max_level)
    out: list[tuple[int, float]] = []
    prev = 0.0
    for m in range(1, top + 1):
        t = float(system.coefficients(m)[i, j])
        marginal = t - prev
        if marginal > _TOL:
            out.append((m, marginal))
        prev = t
    return out


@dataclass(frozen=True)
class StructureSummary:
    """Aggregate facts about an agreement structure."""

    n: int
    edges: int
    density: float
    total_capacity: float
    mean_share_out: float
    mean_capacity_gain: float
    max_dependency: float
    disconnected_principals: tuple[str, ...]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StructureSummary(n={self.n}, edges={self.edges}, "
            f"density={self.density:.2f}, gain={self.mean_capacity_gain:.2f}x, "
            f"max_dependency={self.max_dependency:.2f})"
        )


def summarize(system: CapacityView, level: int | None = None) -> StructureSummary:
    """Compute a :class:`StructureSummary` for a system."""
    n = system.n
    edges = int(np.count_nonzero(system.S))
    C = system.capacities(level)
    V = system.V
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = np.where(V > _TOL, C / np.maximum(V, _TOL), 1.0)
    deps = [dependency(system, p, level) for p in system.principals]
    disconnected = tuple(
        p
        for k, p in enumerate(system.principals)
        if not np.any(system.S[k] > _TOL) and not np.any(system.S[:, k] > _TOL)
        and (system.A is None or (not np.any(system.A[k] > _TOL)
                                  and not np.any(system.A[:, k] > _TOL)))
    )
    return StructureSummary(
        n=n,
        edges=edges,
        density=edges / (n * (n - 1)) if n > 1 else 0.0,
        total_capacity=float(V.sum()),
        mean_share_out=float(system.S.sum(axis=1).mean()),
        mean_capacity_gain=float(np.mean(gains)),
        max_dependency=float(max(deps)) if deps else 0.0,
        disconnected_principals=disconnected,
    )
