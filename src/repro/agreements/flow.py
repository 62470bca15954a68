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

Three algorithms are provided:

``"dp"`` (default)
    Held–Karp-style dynamic programming over visited-node subsets,
    exact, O(2^n * n^2) per source — fast for the paper's scales
    (n = 10) and practical to n ≈ 16–18.  Level-limited runs only touch
    subsets of size <= m, so small ``m`` is cheap even for larger n.

``"dfs"``
    Direct enumeration of simple paths.  Exponential; used as the oracle
    the DP is verified against in tests.

``"walk"``
    Matrix-power approximation ``sum_{l<=m} S^l`` with the diagonal zeroed.
    Counts walks that revisit nodes, hence an *upper bound* on ``T``;
    provided for large sparse systems where exactness is not affordable.

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


def _coefficients_dp(S: np.ndarray, max_level: int) -> np.ndarray:
    """Exact simple-path sums via subset DP, layered by path length."""
    n = S.shape[0]
    T = np.zeros((n, n))
    for i in range(n):
        # layer: dict mask -> vector over last nodes, masks of size == level
        layer: dict[int, np.ndarray] = {}
        for j in range(n):
            if j != i and S[i, j] != 0.0:
                v = np.zeros(n)
                v[j] = S[i, j]
                layer[1 << j] = v
        for vec in layer.values():
            T[i] += vec
        for _level in range(2, max_level + 1):
            nxt: dict[int, np.ndarray] = {}
            for mask, vec in layer.items():
                active = np.nonzero(vec)[0]
                if active.size == 0:
                    continue
                weights = vec[active]
                for k in range(n):
                    bit = 1 << k
                    if k == i or (mask & bit):
                        continue
                    w = float(weights @ S[active, k])
                    if w == 0.0:
                        continue
                    nmask = mask | bit
                    tgt = nxt.get(nmask)
                    if tgt is None:
                        tgt = np.zeros(n)
                        nxt[nmask] = tgt
                    tgt[k] += w
            if not nxt:
                break
            layer = nxt
            for vec in layer.values():
                T[i] += vec
        T[i, i] = 0.0
    return T


def _coefficients_dfs(S: np.ndarray, max_level: int) -> np.ndarray:
    """Oracle: explicit simple-path enumeration (exponential)."""
    n = S.shape[0]
    T = np.zeros((n, n))

    def dfs(i: int, node: int, product: float, visited: int, depth: int) -> None:
        if depth > max_level:
            return
        if node != i:
            T[i, node] += product
        if depth == max_level:
            return
        for k in range(n):
            if k != i and not (visited & (1 << k)) and S[node, k] != 0.0:
                dfs(i, k, product * S[node, k], visited | (1 << k), depth + 1)

    for i in range(n):
        dfs(i, i, 1.0, 1 << i, 0)
    return T


def _coefficients_walk(S: np.ndarray, max_level: int) -> np.ndarray:
    """Walk approximation: sum of powers of S, diagonal zeroed per step."""
    n = S.shape[0]
    T = np.zeros((n, n))
    P = np.eye(n)
    for _ in range(max_level):
        P = P @ S
        np.fill_diagonal(P, 0.0)
        T += P
    np.fill_diagonal(T, 0.0)
    return T


_METHODS = {
    "dp": _coefficients_dp,
    "dfs": _coefficients_dfs,
    "walk": _coefficients_walk,
}


def transitive_coefficients(
    S: np.ndarray, max_level: int | None = None, method: str = "dp"
) -> np.ndarray:
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
    method:
        ``"dp"`` (exact, default), ``"dfs"`` (exact oracle) or ``"walk"``
        (upper-bound approximation for large n).
    """
    S = _check_square(S)
    n = S.shape[0]
    m = n - 1 if max_level is None else int(max_level)
    if m < 0:
        raise AgreementError(f"max_level must be >= 0, got {max_level}")
    m = min(m, n - 1) if method != "walk" else m
    try:
        fn = _METHODS[method]
    except KeyError:
        raise AgreementError(
            f"unknown flow method {method!r}; choose from {sorted(_METHODS)}"
        ) from None
    if m == 0:
        return np.zeros((n, n))
    obs = get_observer()
    with obs.span("flow.coefficients", method=method, n=n, hop_depth=m):
        T = fn(S, m)
    if obs.enabled:
        obs.counter("flow.builds", method=method)
        obs.histogram("flow.hop_depth", m)
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

    When the row-sum restriction ``sum_k S_ik <= 1`` is lifted, chained
    shares can promise node ``j`` more than all of ``i``'s resources; the
    clamp caps the transfer at 100% of ``V_i`` ("the quantity of resources
    C can obtain is limited to 10 instead of 12").
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
