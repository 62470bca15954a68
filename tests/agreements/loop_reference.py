"""Loop reference for the subset DP in :mod:`repro.agreements.flow`.

This is the dict-of-bitmasks dynamic program the vectorised DP
replaced, kept verbatim as a test oracle: it walks one subset and one
next node at a time in Python, so it is slow but easy to audit, and
unlike the DFS oracle (:mod:`dfs_reference`) it stays affordable up to
n = 12.
"""

from __future__ import annotations

import numpy as np


def coefficients_loop(S: np.ndarray, max_level: int) -> np.ndarray:
    """Exact simple-path sums ``T^(m)`` via subset DP, layered by path length."""
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
