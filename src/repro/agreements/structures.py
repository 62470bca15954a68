"""Generators for the agreement structures the paper discusses.

Section 2.2 names three expected structures — **complete**, **sparse** and
**hierarchical** — and the case study (Section 4) additionally uses a
**loop** (cycle) where each ISP shares only with the ``skip``-th next ISP,
and Figure 13's **distance-decay** complete graph (20%/10%/5%/3% by
circular hour distance).

Each generator returns a :class:`~repro.agreements.topology.CapacityView`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import InvalidAgreementMatrixError
from .topology import AgreementTopology, CapacityView

__all__ = [
    "complete_structure",
    "loop_structure",
    "sparse_structure",
    "hierarchical_structure",
    "distance_decay_structure",
    "default_names",
]


def default_names(n: int, prefix: str = "isp") -> list[str]:
    """``['isp0', 'isp1', ...]`` — the naming used throughout the case study."""
    return [f"{prefix}{i}" for i in range(n)]


def _uniform_capacity(n: int, capacity: float | Sequence[float]) -> np.ndarray:
    V = np.full(n, float(capacity)) if np.isscalar(capacity) else np.asarray(capacity, float)
    if V.shape != (n,):
        raise InvalidAgreementMatrixError(
            f"capacity must be a scalar or a length-{n} vector"
        )
    return V


def complete_structure(
    n: int,
    share: float = 0.1,
    capacity: float | Sequence[float] = 1.0,
    names: Sequence[str] | None = None,
) -> CapacityView:
    """Complete graph: every participant shares ``share`` with every other.

    This is the structure of Figures 6–8 and 12: "a complete graph between
    10 servers: each server shares 10% of its resources with every other
    server".  ``share * (n-1) > 1`` is a Section-3.2 overdraft, clamped
    by the coefficients.
    """
    S = np.full((n, n), float(share))
    np.fill_diagonal(S, 0.0)
    return CapacityView.from_matrices(
        names or default_names(n), _uniform_capacity(n, capacity), S
    )


def loop_structure(
    n: int,
    share: float = 0.8,
    skip: int = 1,
    capacity: float | Sequence[float] = 1.0,
    names: Sequence[str] | None = None,
) -> CapacityView:
    """Cycle: each participant shares only with the ``skip``-th next one.

    Figures 9–11 use loops over 10 ISPs with ``share = 0.8`` and neighbors
    one, three and seven time zones away.  ``skip`` must be coprime with
    ``n`` for the loop to be a single cycle (the paper's 1, 3, 7 with
    n = 10 all are); other skips produce multiple disjoint cycles, which is
    permitted but noted.
    """
    if not (1 <= skip < n):
        raise InvalidAgreementMatrixError(f"skip must be in [1, n), got {skip}")
    S = np.zeros((n, n))
    for i in range(n):
        S[i, (i + skip) % n] = float(share)
    return CapacityView.from_matrices(
        names or default_names(n), _uniform_capacity(n, capacity), S
    )


def sparse_structure(
    n: int,
    degree: int = 3,
    share_total: float = 0.3,
    capacity: float | Sequence[float] = 1.0,
    names: Sequence[str] | None = None,
    seed: int = 0,
) -> CapacityView:
    """Random sparse graph: each participant shares with ``degree`` others.

    "Every participant only has sharing agreements with a relatively small
    number [of] other participants" (Section 2.2).  Each row spreads
    ``share_total`` uniformly over ``degree`` distinct random partners.
    """
    if not (0 <= degree < n):
        raise InvalidAgreementMatrixError(f"degree must be in [0, n), got {degree}")
    rng = np.random.default_rng(int(seed))  # None would draw OS entropy
    S = np.zeros((n, n))
    others = np.arange(n)
    for i in range(n):
        partners = rng.choice(others[others != i], size=degree, replace=False)
        for j in partners:
            S[i, j] = share_total / degree if degree else 0.0
    return CapacityView.from_matrices(
        names or default_names(n), _uniform_capacity(n, capacity), S
    )


def hierarchical_structure(
    groups: int,
    group_size: int,
    intra_share_total: float = 0.5,
    inter_share: float = 0.05,
    capacity: float | Sequence[float] = 1.0,
    names: Sequence[str] | None = None,
) -> CapacityView:
    """Groups with complete intra-group sharing and sparse inter-group links.

    "Inside a group, users have complete resource sharing.  Between groups
    there are higher level sparse sharing agreements" (Section 2.2).  Group
    ``g`` occupies indices ``[g*group_size, (g+1)*group_size)``; each row
    spreads ``intra_share_total`` over its group peers, and the *leader*
    (first member) of each group shares ``inter_share`` with the leader of
    the next group (ring of groups).

    The grouping is recorded on the topology as ``view.topology.groups``
    for the multigrid allocator (:mod:`repro.allocation.hierarchical`).
    """
    n = groups * group_size
    S = np.zeros((n, n))
    for g in range(groups):
        lo = g * group_size
        members = range(lo, lo + group_size)
        for i in members:
            for j in members:
                if i != j and group_size > 1:
                    S[i, j] = intra_share_total / (group_size - 1)
    for g in range(groups):
        leader = g * group_size
        next_leader = ((g + 1) % groups) * group_size
        if groups > 1:
            S[leader, next_leader] += inter_share
    topology = AgreementTopology(
        names or default_names(n, prefix="node"),
        S,
        groups=[range(g * group_size, (g + 1) * group_size) for g in range(groups)],
    )
    return topology.view(_uniform_capacity(n, capacity))


def distance_decay_structure(
    n: int = 10,
    shares: Sequence[float] = (0.20, 0.10, 0.05, 0.03),
    capacity: float | Sequence[float] = 1.0,
    names: Sequence[str] | None = None,
) -> CapacityView:
    """Figure 13's structure: shares decay with circular (time-zone) distance.

    "each ISP shares 20% of its resources with neighbors one-hour time zone
    away, 10% with neighbors two-hour time zone away, 5% with those three
    hours away and 3% with further neighbors."  ``shares[d-1]`` applies at
    circular distance ``d``; the last entry applies to all larger distances.
    """
    S = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = min(abs(i - j), n - abs(i - j))
            S[i, j] = shares[min(d, len(shares)) - 1]
    return CapacityView.from_matrices(
        names or default_names(n), _uniform_capacity(n, capacity), S
    )
