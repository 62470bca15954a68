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
visited-node subsets, exact and layered by path length.  One DP runs
over a batch of consecutive sources: a layer holds the live
``(source, subset)`` rows as numpy arrays and advances the whole batch
with one matmul against ``S``, one filter of the moves back into a
subset and one grouping of the moves by ``(source, new subset)``; each
source's rows sum into its row of ``T``.  The worst case, a complete
structure at full closure, holds O(2^r * n) states per source for the
``r`` nodes it reaches within ``m`` hops, so batches grow only while
their widest layer stays under a fixed state budget: the paper's
n = 10 closure is one batch of ten and takes ~2 ms on a 2-core Xeon
host, while from n = 14 each source is its own batch (n = 14 ~0.06 s,
n = 16 ~0.3 s at a ~5 MB peak).  Level-limited runs touch only subsets
of size <= m, and sparse ones (loops, hierarchies) only the subsets some
path visits, so a whole n = 20 loop is one batch and takes ~1 ms even at
full closure.  The tests check the DP against explicit path enumeration.

The flows ``I``, Section 3.2's clamps ``K`` and ``U`` and the effective
capacities ``C`` are written once, in
:mod:`repro.agreements.topology`.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import AgreementError
from ..obs import get_observer

__all__ = ["transitive_coefficients"]


def _check_square(S: np.ndarray) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise AgreementError(f"agreement matrix must be square, got shape {S.shape}")
    return S


#: Widest node set whose subsets fit int64 bitmasks; wider sets use Python
#: ints, affordable only while few subsets are live (e.g. level-limited).
_INT64_NODES = 62

#: Most ``(source, subset, last node)`` entries a batch's widest layer may
#: hold: a complete n = 10 closure (10 sources x 126 subsets x 10 nodes)
#: runs as one batch, and from n = 14 each source is a batch of its own.
_BATCH_STATES = 2**15


def _bits(n: int) -> np.ndarray:
    """``1 << k`` for each of ``n`` nodes, as int64 while that cannot overflow."""
    if n <= _INT64_NODES:
        return np.left_shift(1, np.arange(n, dtype=np.int64))
    return np.array([1 << k for k in range(n)], dtype=object)


def _reach(adj: np.ndarray, hops: int) -> np.ndarray:
    """``seen[i, j]``: node ``j != i`` lies within ``hops`` edges of ``i``."""
    seen = adj.copy()
    frontier = seen
    for _ in range(hops - 1):
        frontier = (frontier @ adj) & ~seen
        if not frontier.any():
            break
        seen |= frontier
    np.fill_diagonal(seen, False)
    return seen


def _batches(first: np.ndarray, r: np.ndarray, max_level: int):
    """Consecutive ``(lo, hi)`` source runs whose widest layers, padded to
    their widest source, stay under ``_BATCH_STATES``.

    A source's layer of ``l``-edge paths has at most ``C(r, l)`` subsets of
    its ``r`` reachable nodes, and no more than there are ``l``-edge walks
    from it: the binomial bounds complete structures and the walk count
    sparse ones (a loop's sources have one subset per layer).  Keys tag
    each mask with the source's position above bit ``n``, so int64 keys
    also cap the batch size.
    """
    n = first.shape[0]
    A = (first != 0.0).astype(float)
    walks, most = np.ones(n), np.zeros(n)
    for _ in range(max_level):
        walks = A @ walks
        most = np.maximum(most, walks)
    subsets = [float(math.comb(k, min(max_level, k // 2))) for k in r.tolist()]
    widest = (np.minimum(subsets, most) * n).tolist()
    max_batch = 1 << max(_INT64_NODES - n, 0)
    lo, top = 0, 0.0
    for i, w in enumerate(widest):
        top = max(top, w)
        if i > lo and ((i - lo + 1) * top > _BATCH_STATES or i - lo == max_batch):
            yield lo, i
            lo, top = i, w
    yield lo, n


def _group(keys: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ``keys`` and each key's index among them.

    While the keys (all below ``space``) fill at least an eighth of their
    range this is a counting sort through a table over it; sparser or
    Python-int keys are sorted.
    """
    if keys.dtype == object or space > 8 * keys.size:
        return np.unique(keys, return_inverse=True)
    seen = np.zeros(space, dtype=bool)
    seen[keys] = True
    distinct = np.flatnonzero(seen)
    index = np.empty(space, dtype=np.intp)
    index[distinct] = np.arange(distinct.size)
    return distinct, index[keys]


def _coefficients_dp(S: np.ndarray, max_level: int) -> tuple[np.ndarray, dict[str, int]]:
    """Exact simple-path sums via one layered subset DP per batch of sources.

    A state is ``(source, s, k)``: ``s`` is the set of nodes a path from
    the source has visited (a bitmask over all ``n`` nodes, the source's
    own bit included) and ``k`` the node it ends at.  Layer ``l`` holds,
    per state, the summed products of the ``l``-edge simple paths with
    that ending, as one row of ``n`` entries per live ``(source, s)``,
    keyed by the source's position in the batch above bit ``n``.  The
    layer is a ``(width, batch, n)`` array: each source's rows in mask
    order, padded with zero rows to the batch's widest source, so one sum
    over its first axis adds every source's rows, in order, into its row
    of ``T``.  The batch advances by one matmul against ``S`` that keeps
    only the moves out of ``s``; extending ``s`` by ``k`` lands on
    ``(s | {k}, k)``, so each move has its own destination and grouping
    the moves by new key gives the next layer's rows.  Layers keep only
    live subsets, so loops and other sparse structures touch only the
    subsets some path visits, and a source whose paths all end drops out.

    Also returns the span attributes ``reachable`` (the largest count
    ``r`` of nodes within ``max_level`` hops of one source, the exponent
    of the cost) and ``states`` (rows materialised over all layers, each
    counted as its source's ``r``).
    """
    n = S.shape[0]
    first = S.copy()  # the one-edge paths
    np.fill_diagonal(first, 0.0)
    T = np.zeros((n, n))
    r = _reach(S != 0.0, max_level).sum(axis=1)
    bits = _bits(n)
    states = 0
    for lo, hi in _batches(first, r, max_level):
        b = hi - lo
        own, last = np.nonzero(first[lo:hi])
        keys = (own.astype(bits.dtype) << n) | bits[lo + own] | bits[last]
        at, values = np.arange(keys.size), first[lo + own, last]
        for depth in range(1, max_level + 1):
            counts = np.bincount(own, minlength=b)
            # the p-th row of batch source j sits at p * b + j
            slot = (np.arange(own.size) - (np.cumsum(counts) - counts)[own]) * b + own
            layer = np.zeros((counts.max(), b, n))
            layer.reshape(-1)[slot[at] * n + last] = values
            states += int(counts @ r[lo:hi])
            T[lo:hi] += layer.sum(axis=0)
            if depth == max_level:
                break
            rows = np.zeros(layer.shape[0] * b, dtype=keys.dtype)
            rows[slot] = keys
            moved = layer.reshape(-1, n) @ S
            flat = np.flatnonzero((moved != 0.0) & ((rows[:, None] & bits) == 0))
            if flat.size == 0:
                break
            row, last = np.divmod(flat, n)
            keys, at = _group(rows[row] | bits[last], b << n)
            own = np.asarray(keys >> n, dtype=np.intp)
            values = moved.reshape(-1)[flat]
    return T, {"reachable": int(r.max(initial=0)), "states": states}


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
