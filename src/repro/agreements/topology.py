"""The versioned topology / capacity-view split of the agreement core.

The enforcement pipeline separates two rates of change.  The agreement
*structure* — who shares what fraction with whom — changes slowly (ticket
issue/revoke), and owning it is expensive: the transitive coefficients
``T^(m)`` behind every flow query cost a subset DP, exponential in the
number of principals (~2 ms at the paper's n = 10, ~0.3 s for a complete
n = 16 structure).
Raw *capacities* ``V`` change every scheduling epoch as availability
fluctuates, but everything derived from them (``I``, ``U``, ``C``) is a
few dense matrix operations.

This module gives each rate its own type:

- :class:`AgreementTopology` — immutable and hashable: principals, the
  relative matrix ``S`` and the optional absolute matrix ``A``.  It owns
  the per-level ``K`` coefficient cache, so any number of views (and any
  number of epochs) amortise one DP run.  A bank's rebuilt topology also
  keeps the DP's plan per level (:class:`~repro.agreements.flow.CoefficientPlan`)
  and passes it to the next rebuild, which replays it while no
  agreement adds an edge.
- :class:`CapacityView` — a capacity vector ``V`` bound to a topology,
  answering the per-epoch queries (:meth:`~CapacityView.capacities`,
  :meth:`~CapacityView.u`) with per-level memoisation.  Views are cheap
  to mint (:meth:`AgreementTopology.view`) and to rebind
  (:meth:`CapacityView.with_capacities`).

A view is the one agreement type the rest of the package passes around:
build one from matrices with :meth:`CapacityView.from_matrices`, from a
structure generator (:mod:`repro.agreements.structures`), or from a bank
with :meth:`repro.economy.Bank.capacity_view`, which reuses the bank's
version-keyed topology cache.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .. import sanitize as _sanitize
from ..errors import InvalidAgreementMatrixError
from . import flow as _flow

__all__ = ["AgreementTopology", "CapacityView"]

_TOL = 1e-9


def _clean_capacities(V: np.ndarray | Sequence[float], n: int) -> np.ndarray:
    """Validate and freeze a raw-capacity vector."""
    V = np.asarray(V, dtype=float).copy()
    if V.shape != (n,):
        raise InvalidAgreementMatrixError(f"V must have shape ({n},), got {V.shape}")
    if not np.all(np.isfinite(V)):
        raise InvalidAgreementMatrixError("capacities V must be finite")
    if np.any(V < -_TOL):
        raise InvalidAgreementMatrixError("capacities V must be non-negative")
    np.maximum(V, 0.0, out=V)
    V.flags.writeable = False
    return V


class AgreementTopology:
    """The slowly-changing half of an agreement system.

    Parameters
    ----------
    principals:
        Names, defining index order in all matrices.
    S:
        Relative agreement matrix; ``S[i, j]`` is the fraction of ``i``'s
        resources shared with ``j``.  Validated to be finite, non-negative
        and zero on the diagonal.  A row may sum past 1 (Section 3.2's
        overdraft): :meth:`coefficients` clamps with ``K`` so no chain
        moves more than 100% of a donor's resources.
    A:
        Optional absolute agreement matrix; ``A[i, j]`` is a constant
        quantity granted by ``i`` to ``j``.
    groups:
        Optional partition of principal indices into groups, recorded by
        :func:`repro.agreements.structures.hierarchical_structure` for the
        multigrid allocator (:mod:`repro.allocation.hierarchical`).  It
        annotates the structure and plays no part in flows or identity.

    Instances are immutable (matrices are stored read-only) and hashable
    on their full structural content, which is what lets callers key
    caches on a topology — e.g. :meth:`repro.economy.Bank.topology`
    keyed on the bank version.
    """

    __slots__ = (
        "principals",
        "n",
        "S",
        "A",
        "groups",
        "_index",
        "_t_cache",
        "_plans",
        "_hash",
    )

    def __init__(
        self,
        principals: Sequence[str],
        S: np.ndarray,
        A: np.ndarray | None = None,
        *,
        groups: Sequence[Sequence[int]] | None = None,
    ) -> None:
        self.principals = tuple(principals)
        self.n = len(self.principals)
        if len(set(self.principals)) != self.n:
            raise InvalidAgreementMatrixError("principal names must be unique")
        self._index = {p: i for i, p in enumerate(self.principals)}
        self.S = self._clean_matrix("S", S)
        self.A = None if A is None else self._clean_matrix("A", A)
        self.groups = (
            None if groups is None else tuple(tuple(int(i) for i in g) for g in groups)
        )
        self._t_cache: dict[int, np.ndarray] = {}
        # the coefficient DP's index half per level, kept only by a bank's
        # rebuilt topologies (see `_adopt_plans`)
        self._plans: dict[int, _flow.CoefficientPlan] | None = None
        self._hash: int | None = None

    # -- validation ----------------------------------------------------------

    def _clean_matrix(self, name: str, M: np.ndarray) -> np.ndarray:
        """Validate and freeze a copy of ``S`` or ``A``: ``(n, n)``,
        finite, non-negative and zero on the diagonal."""
        M = np.asarray(M, dtype=float).copy()
        n = self.n
        if M.shape != (n, n):
            raise InvalidAgreementMatrixError(
                f"{name} must have shape ({n}, {n}), got {M.shape}"
            )
        if not np.all(np.isfinite(M)):
            raise InvalidAgreementMatrixError(f"{name} entries must be finite")
        if np.any(np.abs(np.diag(M)) > _TOL):
            raise InvalidAgreementMatrixError(
                f"{name} must have a zero diagonal ({name}_ii = 0)"
            )
        if np.any(M < -_TOL):
            raise InvalidAgreementMatrixError(f"{name} entries must be non-negative")
        np.maximum(M, 0.0, out=M)
        np.fill_diagonal(M, 0.0)
        M.flags.writeable = False
        return M

    # -- identity ------------------------------------------------------------

    def _key(self) -> tuple:
        return (
            self.principals,
            self.S.tobytes(),
            None if self.A is None else self.A.tobytes(),
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, AgreementTopology):
            return NotImplemented
        return self._key() == other._key()

    # -- queries ---------------------------------------------------------------

    def index(self, principal: str) -> int:
        try:
            return self._index[principal]
        except KeyError:
            raise InvalidAgreementMatrixError(
                f"unknown principal {principal!r}"
            ) from None

    @property
    def max_level(self) -> int:
        """Chain length of the full transitive closure (n - 1)."""
        return max(self.n - 1, 0)

    def _level(self, level: int | None) -> int:
        return self.max_level if level is None else min(int(level), self.max_level)

    def coefficients(self, level: int | None = None) -> np.ndarray:
        """Section 3.2's clamped coefficients ``K^(m)``, cached per level.

        While every row of ``S`` sums to at most 1, ``T^(m) <= 1`` already
        and the clamp changes nothing.  A topology that keeps plans (see
        :meth:`_adopt_plans`) replays the level's plan or records one.
        """
        m = self._level(level)
        T = self._t_cache.get(m)
        if T is None:
            plans = self._plans
            plan = None if plans is None else plans.setdefault(m, _flow.CoefficientPlan())
            replay = plan is not None and plan.recorded
            T = _flow.transitive_coefficients(self.S, m, plan=plan)
            if replay and _sanitize.enabled():
                _sanitize.check_replay(T, _flow._coefficients_dp(self.S, m)[0])
            # K^(m) = min(T^(m), 1): a chain moves at most 100% of a donor's
            # resources ("limited to 10 instead of 12").
            np.minimum(T, 1.0, out=T)
            if _sanitize.enabled():
                _sanitize.check_coefficients(T)
            T.flags.writeable = False
            self._t_cache[m] = T
        return T

    def _adopt_plans(self, previous: "AgreementTopology") -> None:
        """Take over ``previous``'s coefficient plans and keep recording.

        The bank calls this when it rebuilds a topology after a mutation.
        A level's plan passes over when the principals match and it covers
        this ``S`` (a revoke, a reissue at a new share or an inflation):
        that level's first DP then only replays it.  Any other level, as
        after an issue on a new edge, records a new plan as its DP runs.
        """
        plans = previous._plans
        if plans is None or previous.principals != self.principals:
            self._plans = {}
        else:
            self._plans = {m: plan for m, plan in plans.items() if plan.covers(self.S, m)}

    # -- capacity-dependent queries -------------------------------------------
    #
    # Everything below takes V explicitly: the topology knows how to
    # evaluate flows for *any* capacity vector without being cloned.

    def _uc(
        self, V: np.ndarray | Sequence[float], level: int | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Section 3.2's ``(U, C)`` for raw capacities ``V``.

        ``U_ki = min(V_k K_ki + A_ki, V_k)`` with a zero diagonal: the
        flow ``I = V_k K_ki`` plus the absolute grant, clamped at what
        donor ``k`` owns.  ``C_i = V_i + sum_k U_ki``.  Only ``V`` is
        checked: ``S``, ``A`` and ``K`` were validated and frozen when
        built.
        """
        V = np.asarray(V, dtype=float)
        if V.shape != (self.n,):
            raise InvalidAgreementMatrixError(
                f"V must have shape ({self.n},), got {V.shape}"
            )
        U = V[:, None] * self.coefficients(level)
        if self.A is not None:
            U += self.A
        np.minimum(U, V[:, None], out=U)
        np.fill_diagonal(U, 0.0)
        return U, V + U.sum(axis=0)

    def u(self, V: np.ndarray, level: int | None = None) -> np.ndarray:
        """``U_ki`` — relative + absolute inflow clamped at donor capacity."""
        return self._uc(V, level)[0]

    def capacities(self, V: np.ndarray, level: int | None = None) -> np.ndarray:
        """Effective capacities ``C_i`` for capacity vector ``V``."""
        return self._uc(V, level)[1]

    def view(self, V: np.ndarray) -> "CapacityView":
        """Bind a raw-capacity vector to this topology."""
        return CapacityView(self, V)

    def __repr__(self) -> str:
        return (
            f"AgreementTopology(n={self.n}, "
            f"edges={int(np.count_nonzero(self.S))})"
        )


class CapacityView:
    """The fast-changing half: a capacity vector over a topology.

    A view answers every flow/capacity query of the enforcement layer but
    owns no structure of its own — ``T`` lookups hit the topology's shared
    cache, and the per-level ``(U, C)`` pairs computed for *this* ``V``
    are memoised so an allocator's sequence of
    ``u() / capacities() / coefficients()`` calls does the dense algebra
    once.  Every array a view hands out is read-only; ``.copy()`` before
    writing.
    """

    __slots__ = ("topology", "V", "_uc_cache")

    def __init__(
        self, topology: AgreementTopology, V: np.ndarray | Sequence[float]
    ) -> None:
        self.topology = topology
        self.V = _clean_capacities(V, topology.n)
        self._uc_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def from_matrices(
        cls,
        principals: Sequence[str],
        V: np.ndarray | Sequence[float],
        S: np.ndarray,
        A: np.ndarray | None = None,
    ) -> "CapacityView":
        """Validate ``(principals, S, A)`` into a new topology and bind ``V``.

        ``S[i, j]`` is the fraction of ``i``'s resources shared with
        ``j`` and ``A[i, j]`` a constant quantity granted by ``i`` to
        ``j``; see :class:`AgreementTopology` for the constraints.
        """
        return cls(AgreementTopology(principals, S, A), V)

    # -- structure passthrough -------------------------------------------------

    @property
    def principals(self) -> list[str]:
        return list(self.topology.principals)

    @property
    def n(self) -> int:
        return self.topology.n

    @property
    def S(self) -> np.ndarray:
        return self.topology.S

    @property
    def A(self) -> np.ndarray | None:
        return self.topology.A

    @property
    def max_level(self) -> int:
        return self.topology.max_level

    def index(self, principal: str) -> int:
        return self.topology.index(principal)

    def coefficients(self, level: int | None = None) -> np.ndarray:
        return self.topology.coefficients(level)

    # -- capacity queries ------------------------------------------------------

    def _uc(self, level: int | None) -> tuple[np.ndarray, np.ndarray]:
        m = self.topology._level(level)
        pair = self._uc_cache.get(m)
        if pair is None:
            U, C = self.topology._uc(self.V, m)
            # Freeze before caching: every caller shares these arrays, so
            # an in-place write would corrupt the memo for the rest of
            # the epoch.
            U.flags.writeable = False
            C.flags.writeable = False
            pair = self._uc_cache[m] = (U, C)
        return pair

    def u(self, level: int | None = None) -> np.ndarray:
        return self._uc(level)[0]

    def capacities(self, level: int | None = None) -> np.ndarray:
        return self._uc(level)[1]

    def capacity_of(self, principal: str, level: int | None = None) -> float:
        return float(self.capacities(level)[self.index(principal)])

    def with_capacities(self, V: np.ndarray) -> "CapacityView":
        """A view of the same topology at different raw capacities."""
        return CapacityView(self.topology, V)

    def __repr__(self) -> str:
        return (
            f"CapacityView(n={self.n}, total_capacity={self.V.sum():g}, "
            f"edges={int(np.count_nonzero(self.S))})"
        )
