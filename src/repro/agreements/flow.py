"""Transitive resource flow through chained agreements (Section 3.1).

The paper defines ``I^(m)_ij`` as the resource amount flowing from currency
node ``i`` into currency node ``j`` through at most ``m`` levels of
transitive agreements, where chains may not revisit nodes::

    I^(m)_ij = V_i * T^(m)_ij
    T^(m)_ij = sum over simple paths i -> k_1 -> ... -> k_{l-1} -> j
               (1 <= l <= m, k_p distinct, k_p != i, j)
               of S[i,k_1] * S[k_1,k_2] * ... * S[k_{l-1},j]

``T`` depends only on the agreement matrix ``S``, so it is computed once
per (structure, level) and cached by
:class:`~repro.agreements.topology.AgreementTopology`.

The coefficients come from Held–Karp-style dynamic programming over
visited-node subsets, exact and layered by path length.  Per source the
DP works only on the ``r`` nodes within ``m`` hops, holds each layer as
numpy arrays of its live subsets and advances it with one matmul against
``S`` and one sort.  The worst case, a complete structure at full
closure, moves O(2^r * r^2) states per source in a few numpy calls per
layer: on a 2-core Xeon host n = 10 takes ~6 ms, n = 14 ~0.1 s and
n = 16 ~0.55 s.  Level-limited runs touch only subsets of size <= m, and
sparse ones (loops, hierarchies) only the subsets some path visits, so
n = 20 loops run in tens of milliseconds even at full closure.  The
tests check the DP against explicit path enumeration.

The extensions of Section 3.2 are :func:`overdraft_clamp` (``K^(m)``,
clamping coefficients at 1 when row sums may exceed 1) and
:func:`u_matrix` (clamping combined relative+absolute inflows at the
donor's raw capacity ``V_k``).
"""

from __future__ import annotations

import numpy as np

from ..errors import AgreementError
from ..obs import get_observer

__all__ = [
    "transitive_coefficients",
    "flow_matrix",
    "overdraft_clamp",
    "u_matrix",
    "capacities",
]


def _check_square(S: np.ndarray) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise AgreementError(f"agreement matrix must be square, got shape {S.shape}")
    return S


#: Widest node set whose subsets fit int64 bitmasks; wider sets use Python
#: ints, affordable only while few subsets are live (e.g. level-limited).
_INT64_NODES = 62


def _bits(r: int) -> np.ndarray:
    """``1 << k`` for each of ``r`` nodes, as int64 while that cannot overflow."""
    if r <= _INT64_NODES:
        return np.left_shift(1, np.arange(r, dtype=np.int64))
    return np.array([1 << k for k in range(r)], dtype=object)


def _reachable(adj: np.ndarray, i: int, hops: int) -> np.ndarray:
    """Nodes other than ``i`` within ``hops`` edges of ``i``, ascending."""
    seen = adj[i].copy()
    frontier = seen
    for _ in range(hops - 1):
        frontier = adj[frontier].any(axis=0) & ~seen
        if not frontier.any():
            break
        seen |= frontier
    seen[i] = False
    return np.flatnonzero(seen)


def _coefficients_dp(S: np.ndarray, max_level: int) -> tuple[np.ndarray, dict[str, int]]:
    """Exact simple-path sums via a layered subset DP.

    For each source ``i`` only the ``r`` nodes within ``max_level`` hops
    take part.  Layer ``l`` holds, for each live ``l``-subset ``s`` of them
    (a bitmask) and last node ``k``, the sum of the products over simple
    paths from ``i`` that visit exactly ``s`` and end at ``k``; each
    layer's column sums add into ``T[i]``.  A layer keeps only its live
    subsets, so loops and other sparse structures touch only the subsets
    some path visits.  It advances by one matmul against ``S``, with
    moves back into ``s`` zeroed; extending ``s`` by ``k`` lands on
    ``(s | {k}, k)``, so each move has its own destination and the moves
    are grouped into the next layer's rows by sorting their new masks.

    Also returns the span attributes ``reachable`` (the largest per-source
    ``r``, the exponent of the cost) and ``states`` (``(subset, last)``
    entries materialised over all layers).
    """
    n = S.shape[0]
    T = np.zeros((n, n))
    adj = S != 0.0
    widest = states = 0
    for i in range(n):
        nodes = _reachable(adj, i, max_level)
        r = nodes.size
        if r == 0:
            continue
        widest = max(widest, r)
        bits = _bits(r)
        sub = S[np.ix_(nodes, nodes)]
        row = S[i, nodes].copy()
        first = np.flatnonzero(row)
        masks = bits[first]
        layer = np.zeros((first.size, r))
        layer[np.arange(first.size), first] = row[first]
        states += layer.size
        for _ in range(1, min(max_level, r)):
            moved = layer @ sub
            moved[(masks[:, None] & bits) != 0] = 0.0
            src, last = np.nonzero(moved)
            if src.size == 0:
                break
            masks, at = np.unique(masks[src] | bits[last], return_inverse=True)
            layer = np.zeros((masks.size, r))
            layer[at, last] = moved[src, last]
            states += layer.size
            row += layer.sum(axis=0)
        T[i, nodes] = row
    return T, {"reachable": widest, "states": states}


def transitive_coefficients(S: np.ndarray, max_level: int | None = None) -> np.ndarray:
    """Compute ``T^(m)`` for relative agreement matrix ``S``.

    Parameters
    ----------
    S:
        Square relative agreement matrix (``S[i, j]`` = fraction of ``i``'s
        resources shared with ``j``; zero diagonal).
    max_level:
        Maximum chain length ``m``.  ``None`` (or anything >= n-1) means
        the full transitive closure ``T^(n-1)`` — a simple path visits at
        most n-1 edges, so deeper levels add nothing.
    """
    S = _check_square(S)
    n = S.shape[0]
    m = n - 1 if max_level is None else int(max_level)
    if m < 0:
        raise AgreementError(f"max_level must be >= 0, got {max_level}")
    m = min(m, n - 1)
    if m == 0:
        return np.zeros((n, n))
    obs = get_observer()
    with obs.span("flow.coefficients", n=n, hop_depth=m) as span:
        T, cost = _coefficients_dp(S, m)
        span.set(**cost)
    if obs.enabled:
        obs.histogram("flow.hop_depth", m)
        obs.histogram("flow.dp_states", cost["states"], reachable=cost["reachable"])
    return T


def flow_matrix(V: np.ndarray, T: np.ndarray) -> np.ndarray:
    """``I^(m)_ij = V_i * T^(m)_ij`` — actual resource flows."""
    V = np.asarray(V, dtype=float)
    T = _check_square(T)
    if V.shape != (T.shape[0],):
        raise AgreementError(
            f"capacity vector shape {V.shape} does not match matrix {T.shape}"
        )
    return V[:, None] * T


def overdraft_clamp(T: np.ndarray) -> np.ndarray:
    """Section 3.2's ``K^(m)``: clamp coefficients at 1.

    When a row of ``S`` sums past 1 (an overdraft), chained shares can
    promise node ``j`` more than all of ``i``'s resources; the clamp caps
    the transfer at 100% of ``V_i`` ("the quantity of resources C can
    obtain is limited to 10 instead of 12").  Every topology applies it;
    while row sums stay at most 1, ``T <= 1`` already and it is a no-op.
    """
    return np.minimum(_check_square(T), 1.0)


def u_matrix(I: np.ndarray, A: np.ndarray | None, V: np.ndarray) -> np.ndarray:
    """Combine relative flows with absolute grants, clamped at donor capacity.

    ``U_ki = min(I^(n-1)_ki + A_ki, V_k)`` (Section 3.2): the total a donor
    ``k`` provides to ``i`` cannot exceed what ``k`` owns.
    """
    I = _check_square(I)
    V = np.asarray(V, dtype=float)
    n = I.shape[0]
    if A is None:
        A = np.zeros((n, n))
    A = _check_square(A)
    if A.shape != I.shape:
        raise AgreementError("absolute matrix shape does not match flow matrix")
    U = np.minimum(I + A, V[:, None])
    np.fill_diagonal(U, 0.0)
    return U


def capacities(V: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Effective capacities ``C_i = V_i + sum_{k != i} U_ki``."""
    V = np.asarray(V, dtype=float)
    U = _check_square(U)
    return V + U.sum(axis=0)
