"""Path-enumeration reference for the subset DP in :mod:`repro.agreements.flow`.

The DFS oracle the DP is verified against: it enumerates every simple
path explicitly, so it is exponential but needs no subset bookkeeping
at all.
"""

from __future__ import annotations

import numpy as np


def coefficients_dfs(S: np.ndarray, max_level: int) -> np.ndarray:
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
