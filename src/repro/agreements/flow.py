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

The DP has two halves.  The *index half* (the plan) derives, per batch
and layer, where each state sits in the layer and which moves survive
into the next: subset keys, grouping and scatter positions, most of the
DP's work.  It depends only on which shares are non-zero and on the
level.  The *value half* (the replay) scatters the values, sums the
layer into ``T``, multiplies it by ``S`` and gathers the surviving moves.
Every call runs both on one code path; a :class:`CoefficientPlan` handed
to :func:`transitive_coefficients` keeps the index half, and a later
call with new shares on a pattern the plan covers replays it alone
(best of repeated runs on the same host: 0.2 ms against 1.1 ms for the
complete n = 10 closure, 0.15 ms against 1 ms for the n = 20 loop).  A
state the new shares do not reach carries an exact zero, and products
run in fixed-shape blocks (``_BLOCK_ROWS``), so a replayed ``T`` equals
the full DP's bit for bit.  This is what makes an agreement change
cheap: the bank hands the plans from one topology to the next
(:meth:`repro.economy.Bank.topology`).

The flows ``I``, Section 3.2's clamps ``K`` and ``U`` and the effective
capacities ``C`` are written once, in
:mod:`repro.agreements.topology`.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from ..errors import AgreementError
from ..obs import get_observer

__all__ = ["CoefficientPlan", "transitive_coefficients"]


def _check_square(S: np.ndarray) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise AgreementError(f"agreement matrix must be square, got shape {S.shape}")
    return np.ascontiguousarray(S)


#: Widest node set whose subsets fit int64 bitmasks; wider sets use Python
#: ints, affordable only while few subsets are live (e.g. level-limited).
_INT64_NODES = 62

#: Most ``(source, subset, last node)`` entries a batch's widest layer may
#: hold: a complete n = 10 closure (10 sources x 126 subsets x 10 nodes)
#: runs as one batch, and from n = 14 each source is a batch of its own.
#: A :class:`CoefficientPlan` is kept only while its moves over all layers
#: fit the same budget (a complete n = 10 closure makes 23,040).
_BATCH_STATES = 2**15

#: Rows per matmul block.  A layer is multiplied by ``S`` as a stack of
#: blocks of this many rows, the last padded with zero rows, so every
#: product is one BLAS call shape.  One matmul over a whole layer lets
#: some BLAS kernels sum a row in another order depending on how many rows
#: the layer has; a replay's layers hold more rows than the DP's, so its
#: ``T`` would then drift by an ulp.
_BLOCK_ROWS = 64


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


def _pattern(S: np.ndarray) -> np.ndarray:
    """Which off-diagonal shares are non-zero."""
    P = S != 0.0
    np.fill_diagonal(P, False)
    return P


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


#: One layer's indices: the positions of the moves that survive into it
#: (in ``S`` for the first layer, else in the previous layer's products),
#: the layer's width and where each move's value lands in it.
_Step = tuple[np.ndarray, int, np.ndarray]


class _Planner:
    """The index half of the DP for the batch of sources ``lo:hi``.

    A state is ``(source, s, k)``: ``s`` is the set of nodes a path from
    the source has visited (a bitmask over all ``n`` nodes, the source's
    own bit included) and ``k`` the node it ends at.  Layer ``l`` holds,
    per state, the summed products of the ``l``-edge simple paths with
    that ending, as one row of ``n`` entries per live ``(source, s)``,
    keyed by the source's position in the batch above bit ``n``.  The
    layer is a ``(width, batch, n)`` array: each source's rows in mask
    order, padded with zero rows to the batch's widest source, so one sum
    over its first axis adds every source's rows, in order, into its row
    of ``T``.  Of the layer's products with ``S`` only the moves out of
    ``s`` with a non-zero value survive; extending ``s`` by ``k`` lands
    on ``(s | {k}, k)``, so each move has its own destination and
    grouping the moves by new key gives the next layer's rows.  Layers
    keep only live subsets, so loops and other sparse structures touch
    only the subsets some path visits, and a source whose paths all end
    drops out.

    Given ``room``, the planner also records its steps while their moves
    fit in it; ``steps`` is ``None`` when nothing is recorded.
    """

    def __init__(
        self,
        first: np.ndarray,
        lo: int,
        hi: int,
        bits: np.ndarray,
        r: np.ndarray,
        room: int | None = None,
    ) -> None:
        n = first.shape[0]
        own, last = np.nonzero(first[lo:hi])
        self.n, self.b, self.bits, self.r = n, hi - lo, bits, r[lo:hi]
        self.keys = (own.astype(bits.dtype) << n) | bits[lo + own] | bits[last]
        self.own, self.last, self.at = own, last, np.arange(own.size)
        self.moves = (lo + own) * n + last
        self.slot, self.width = np.empty(0, dtype=np.intp), 0
        #: rows materialised so far, each counted as its source's ``r``
        self.states = 0
        self.room = 0 if room is None else room
        self.steps: list[_Step] | None = None if room is None else []

    def step(self, moved: np.ndarray | None) -> _Step | None:
        """The next layer's indices from the last layer's products ``moved``
        (``None`` for the first layer); ``None`` once no move survives."""
        n, b, bits = self.n, self.b, self.bits
        if moved is not None:
            rows = np.zeros(self.width * b, dtype=self.keys.dtype)
            rows[self.slot] = self.keys
            flat = np.flatnonzero(
                (moved[: rows.size] != 0.0) & ((rows[:, None] & bits) == 0)
            )
            if flat.size == 0:
                return None
            row, self.last = np.divmod(flat, n)
            self.keys, self.at = _group(rows[row] | bits[self.last], b << n)
            self.own = np.asarray(self.keys >> n, dtype=np.intp)
            self.moves = flat
        counts = np.bincount(self.own, minlength=b)
        # the p-th row of batch source j sits at p * b + j
        start = (np.cumsum(counts) - counts)[self.own]
        self.slot = (np.arange(self.own.size) - start) * b + self.own
        self.width = int(counts.max())
        self.states += int(counts @ self.r)
        indices = self.moves, self.width, self.slot[self.at] * n + self.last
        if self.steps is not None:
            self.room -= self.moves.size
            if self.room < 0:
                self.steps = None
            else:
                self.steps.append(indices)
        return indices


def _run_batch(
    S: np.ndarray,
    T: np.ndarray,
    step: Callable[[np.ndarray | None], _Step | None],
    max_level: int,
) -> None:
    """The value half for one batch of sources, adding into their rows ``T``.

    ``step`` gives each layer's indices from the last layer's products.
    """
    b, n = T.shape
    source = S.reshape(-1)
    moved: np.ndarray | None = None
    for depth in range(1, max_level + 1):
        indices = step(moved)
        if indices is None:
            break
        moves, width, scatter = indices
        size = width * b
        layer = np.zeros((-(-size // _BLOCK_ROWS) * _BLOCK_ROWS, n))
        layer.reshape(-1)[scatter] = source[moves]
        T += layer[:size].reshape(width, b, n).sum(axis=0)
        if depth < max_level:
            moved = (layer.reshape(-1, _BLOCK_ROWS, n) @ S).reshape(-1, n)
            source = moved.reshape(-1)


class CoefficientPlan:
    """The index half of the coefficient DP for one share pattern and level.

    A plan starts empty.  The first :func:`transitive_coefficients` call
    handed it records its steps while the DP runs, and keeps them only if
    they fit ``_BATCH_STATES`` moves, ``T`` came out finite and no product
    of ``level`` positive shares can underflow.  Those conditions make the
    recorded moves exactly the ones the pattern allows, not just those
    whose values came out non-zero.  A call with shares whose pattern the
    plan :meth:`covers` then replays it.  A recorded plan never changes,
    so topologies may share one.
    """

    __slots__ = ("level", "pattern", "batches", "reachable", "states")

    def __init__(self) -> None:
        self.level: int | None = None
        self.pattern: np.ndarray | None = None
        #: ``(lo, hi, steps)`` per batch of sources; ``None`` until recorded
        self.batches: tuple[tuple[int, int, tuple[_Step, ...]], ...] | None = None
        self.reachable = 0
        self.states = 0

    @property
    def recorded(self) -> bool:
        return self.batches is not None

    def covers(self, S: np.ndarray, level: int | None) -> bool:
        """Whether replaying this plan gives ``T^(level)`` of ``S``: it was
        recorded at that level on as many nodes, and every non-zero share of
        ``S`` lies in its pattern."""
        pattern = self.pattern
        if pattern is None or level != self.level or S.shape != pattern.shape:
            return False
        return not np.any(_pattern(S) & ~pattern)

    def _keep(
        self,
        S: np.ndarray,
        T: np.ndarray,
        level: int,
        batches: list,
        cost: dict,
    ) -> bool:
        pattern = _pattern(S)
        low = float(S[pattern].min(initial=1.0))
        # A product of at most `level` positive shares rounds at most
        # `level` times, so one whose exact value is at least 2^(minexp + 1)
        # stays a normal float and no sum of such products vanishes: every
        # move the pattern allows was recorded.
        if not (
            low > 0.0
            and level * math.log2(low) >= np.finfo(float).minexp + 1
            and np.isfinite(T).all()
        ):
            return False
        pattern.flags.writeable = False
        self.level, self.pattern = level, pattern
        self.batches = tuple(batches)
        self.reachable, self.states = cost["reachable"], cost["states"]
        return True


def _coefficients_dp(
    S: np.ndarray, max_level: int, plan: CoefficientPlan | None = None
) -> tuple[np.ndarray, dict]:
    """Exact simple-path sums via one layered subset DP per batch of sources.

    With a recorded ``plan`` only the value half runs; with an empty one
    the steps are recorded into it.  Also returns the span attributes
    ``reachable`` (the largest count ``r`` of nodes within ``max_level``
    hops of one source, the exponent of the cost), ``states`` (rows
    materialised over all layers, each counted as its source's ``r``; a
    replay reports its plan's) and ``plan`` (``"none"``, ``"recorded"``
    or ``"replayed"``).
    """
    n = S.shape[0]
    T = np.zeros((n, n))
    if plan is not None and plan.batches is not None:
        for lo, hi, steps in plan.batches:
            replay = iter(steps)
            _run_batch(S, T[lo:hi], lambda _moved: next(replay, None), max_level)
        return T, {"reachable": plan.reachable, "states": plan.states, "plan": "replayed"}
    first = S.copy()  # the one-edge paths
    np.fill_diagonal(first, 0.0)
    r = _reach(S != 0.0, max_level).sum(axis=1)
    bits = _bits(n)
    batches: list | None = None if plan is None else []
    room = None if plan is None else _BATCH_STATES
    states = 0
    for lo, hi in _batches(first, r, max_level):
        planner = _Planner(first, lo, hi, bits, r, room)
        _run_batch(S, T[lo:hi], planner.step, max_level)
        states += planner.states
        if batches is not None and planner.steps is not None:
            batches.append((lo, hi, tuple(planner.steps)))
            room = planner.room
        else:
            batches = room = None
    cost = {"reachable": int(r.max(initial=0)), "states": states, "plan": "none"}
    if plan is not None and batches is not None and plan._keep(S, T, max_level, batches, cost):
        cost["plan"] = "recorded"
    return T, cost


def transitive_coefficients(
    S: np.ndarray,
    max_level: int | None = None,
    *,
    plan: CoefficientPlan | None = None,
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
    plan:
        A :class:`CoefficientPlan`.  An empty one records this DP's index
        half; a recorded one must cover ``S`` at level ``m`` and is
        replayed.  Without one nothing outlives the call.
    """
    S = _check_square(S)
    n = S.shape[0]
    m = n - 1 if max_level is None else int(max_level)
    if m < 0:
        raise AgreementError(f"max_level must be >= 0, got {max_level}")
    m = min(m, n - 1)
    if m == 0:
        return np.zeros((n, n))
    if plan is not None and plan.recorded and not plan.covers(S, m):
        raise AgreementError(
            f"the plan (level {plan.level}) does not cover this S at level {m}"
        )
    obs = get_observer()
    with obs.span("flow.coefficients", n=n, hop_depth=m) as span:
        T, cost = _coefficients_dp(S, m, plan)
        if cost["plan"] == "replayed" and not np.isfinite(T).all():
            # an overflowing product may have made a NaN out of a move the
            # plan dropped; only the full DP knows which moves those were
            T, cost = _coefficients_dp(S, m)
        span.set(**cost)
    if obs.enabled:
        obs.histogram("flow.hop_depth", m)
        obs.histogram("flow.dp_states", cost["states"], reachable=cost["reachable"])
    return T
