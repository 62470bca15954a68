"""The bank: registry and valuation engine for tickets and currencies.

The bank holds every currency and live ticket, computes currency values, and
exports the ``(V, S, A)`` agreement matrices that the enforcement layer
(:mod:`repro.agreements`) consumes.

Valuation
---------
"The value of a currency is determined by the summation of all the backing
tickets (both absolute ones and relative ones)" and "a relative ticket's
real value is computed by multiplying the value of the currency from which
it is issued by its share of all the amount issued by that currency"
(Section 2.2; in Example 1 the share denominator is the issuing currency's
face value: R-Ticket4 with face 500 from currency A with face 1000 is worth
``value(A) * 500/1000``).

These equations are linear: with ``M[c, q]`` the summed fractions of
relative tickets issued by ``q`` backing ``c`` and ``b[c]`` the absolute
backing, values satisfy ``v = b + M v``.  The bank solves ``(I - M) v = b``
directly.  Cyclic funding graphs are fine as long as the cycle's product of
fractions is below 1 (the Neumann series converges); a singular system or
an expansive cycle (one that drives a value negative) makes values
undefined and raises :class:`~repro.errors.CurrencyCycleError`.

Flattening
----------
The enforcement layer sees principals only, so the flatten eliminates the
virtual block ``W`` of the same system and keeps the default block ``D``.
With ``b_W`` the virtual currencies' absolute backing of one resource
type, ``X = (I - M_WW)^-1 [M_WD | b_W]`` is what each virtual currency
holds per unit of each principal's resources, plus an absolute part.
Then ``S = (M_DD + M_DW X_D)^T`` with a zero diagonal, and each virtual
currency's absolute part, passed on through ``M_DW``, is granted by its
owner in ``A``.  In Example 2, A funds A2 with ``500/1000`` of itself and
A2 issues ``60/100`` of itself to B, so ``X[A2, A] = 0.5`` and
``S[A, B] = 0.6 * 0.5 = 0.3``: B holds 15 + 0.3 * 10 = 18 TB.  Both solves
go through one function, so valuation and flattening share one cycle rule.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from typing import Concatenate, ParamSpec, TypeVar

import numpy as np

from .. import sanitize as _sanitize
from ..agreements.topology import AgreementTopology, CapacityView
from ..errors import (
    CurrencyCycleError,
    DuplicateNameError,
    EconomyError,
    TicketRevokedError,
    UnknownCurrencyError,
    UnknownTicketError,
)
from ..obs import get_observer
from ..units import ResourceVector
from .currency import DEFAULT_FACE_VALUE, Currency
from .ticket import Ticket, TicketKind

__all__ = ["Bank"]

_SINGULAR_TOL = 1e-10

_P = ParamSpec("_P")
_R = TypeVar("_R")


def mutates(method: Callable[Concatenate[Bank, _P], _R]) -> Callable[Concatenate[Bank, _P], _R]:
    """Mark a public :class:`Bank` method as a mutator (module-private).

    The wrapper bumps :attr:`Bank.version` once the method returns
    normally, so every agreement change reaches the version-keyed
    topology cache and a rejected change (the method raised) leaves the
    version alone.  Marked functions carry ``__mutates__ = True``.
    """

    @functools.wraps(method)
    def wrapper(self: Bank, *args: _P.args, **kwargs: _P.kwargs) -> _R:
        result = method(self, *args, **kwargs)
        self._bump_version()
        return result

    wrapper.__mutates__ = True  # type: ignore[attr-defined]
    return wrapper


def _solve_funding(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``(I - M) X = B``, clamped at zero: the bank's one cycle rule.

    Raises :class:`~repro.errors.CurrencyCycleError` when ``I - M`` is
    singular (a cycle shares 100% around) or the solution is negative (an
    expansive cycle, whose Neumann series diverges).
    """
    n = M.shape[0]
    if n == 0:
        return np.zeros(B.shape)
    I_M = np.eye(n) - M
    if np.linalg.cond(I_M) > 1 / _SINGULAR_TOL:
        raise CurrencyCycleError(
            "currency funding graph has a non-contractive cycle; "
            "values are undefined (total shared fractions around a "
            "cycle must stay below 100%)"
        )
    X: np.ndarray = np.linalg.solve(I_M, B)
    if np.any(X < -1e-9):
        raise CurrencyCycleError(
            "currency valuation produced negative values, indicating an "
            "expansive funding cycle"
        )
    np.maximum(X, 0.0, out=X)
    return X


class Bank:
    """Registry of currencies and tickets with value computation.

    Typical construction of Figure 1's system::

        bank = Bank()
        for p in "ABCD":
            bank.create_currency(p)
        bank.deposit_capacity("A", 10.0, resource_type="disk")
        bank.deposit_capacity("B", 15.0, resource_type="disk")
        bank.issue_absolute_ticket("A", "C", 3.0, resource_type="disk")
        bank.issue_relative_ticket("A", "B", 500)
        bank.issue_relative_ticket("B", "D", 60)
    """

    def __init__(self) -> None:
        self._currencies: dict[str, Currency] = {}
        self._tickets: dict[int, Ticket] = {}  # live tickets only
        self._revoked: set[int] = set()
        self._version = 0
        # flattened topology per resource type, valid for one bank
        # version: resource_type -> (version, topology, V)
        self._topology_cache: dict[str, tuple[int, AgreementTopology, np.ndarray]] = {}

    # -- versioning ----------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic counter, bumped by every currency/ticket mutation.

        Consumers key caches on it: equal versions guarantee an unchanged
        agreement structure, so flattened topologies (and their transitive
        coefficient caches) can be reused across scheduling epochs.
        """
        return self._version

    def _bump_version(self) -> None:
        """The one place the version moves; called by :func:`mutates`."""
        prev = self._version
        self._version += 1
        if _sanitize.enabled():
            _sanitize.bank_mutated(self, prev)

    # -- registry ------------------------------------------------------------

    @mutates
    def create_currency(
        self,
        name: str,
        face_value: float = DEFAULT_FACE_VALUE,
        owner: str | None = None,
        virtual: bool = False,
    ) -> Currency:
        """Create a currency.  Default (non-virtual) currencies represent a
        principal and are owned by it: ``owner`` may only repeat ``name``.
        Virtual currencies must name their creating principal, an existing
        default currency, as ``owner``.  The flatten charges a currency's
        absolute grants to its owner."""
        if name in self._currencies:
            raise DuplicateNameError(f"currency {name!r} already exists")
        if not virtual and owner not in (None, name):
            raise EconomyError(
                f"default currency {name!r} is owned by its principal, not {owner!r}"
            )
        if virtual:
            if owner is None:
                raise EconomyError(f"virtual currency {name!r} must declare an owner")
            owning = self._currencies.get(owner)
            if owning is None or owning.virtual:
                raise EconomyError(
                    f"virtual currency {name!r}: owner {owner!r} is not a principal"
                )
        cur = Currency(name=name, face_value=face_value, owner=owner, virtual=virtual)
        self._currencies[name] = cur
        return cur

    def currency(self, name: str) -> Currency:
        try:
            return self._currencies[name]
        except KeyError:
            raise UnknownCurrencyError(name) from None

    def ticket(self, ticket_id: int) -> Ticket:
        """A live ticket; a revoked id is unknown here."""
        try:
            return self._tickets[ticket_id]
        except KeyError:
            raise UnknownTicketError(ticket_id) from None

    @property
    def currencies(self) -> tuple[Currency, ...]:
        return tuple(self._currencies.values())

    @property
    def tickets(self) -> tuple[Ticket, ...]:
        """The live (unrevoked) tickets, in issue order."""
        return tuple(self._tickets.values())

    def principals(self) -> list[str]:
        """Owners of default (non-virtual) currencies, in creation order."""
        return [c.name for c in self._currencies.values() if not c.virtual]

    # -- ticket operations ----------------------------------------------------

    def _register(self, ticket: Ticket) -> Ticket:
        self._tickets[ticket.ticket_id] = ticket
        return ticket

    @mutates
    def deposit_capacity(
        self,
        currency: str,
        amount: float,
        resource_type: str = "general",
        name: str = "",
    ) -> Ticket:
        """Deposit raw owned capacity (a base absolute ticket, no issuer)."""
        self.currency(currency)  # validate
        return self._register(
            Ticket(
                kind=TicketKind.ABSOLUTE,
                face_value=float(amount),
                backing=currency,
                issuer=None,
                resource_type=resource_type,
                name=name,
            )
        )

    @mutates
    def issue_absolute_ticket(
        self,
        issuer: str,
        backing: str,
        value: float,
        resource_type: str = "general",
        name: str = "",
    ) -> Ticket:
        """Express an *absolute* agreement: ``issuer`` grants a constant
        quantity of one resource to ``backing`` (e.g. R-Ticket3: 3 TB)."""
        self.currency(issuer)
        self.currency(backing)
        if issuer == backing:
            raise EconomyError(f"currency {issuer!r} cannot back itself")
        return self._register(
            Ticket(
                kind=TicketKind.ABSOLUTE,
                face_value=float(value),
                backing=backing,
                issuer=issuer,
                resource_type=resource_type,
                name=name,
            )
        )

    @mutates
    def issue_relative_ticket(
        self,
        issuer: str,
        backing: str,
        face_value: float,
        name: str = "",
    ) -> Ticket:
        """Express a *relative* agreement: ``issuer`` shares
        ``face_value / issuer.face_value`` of its available resources."""
        self.currency(issuer)
        self.currency(backing)
        if issuer == backing:
            raise EconomyError(f"currency {issuer!r} cannot back itself")
        return self._register(
            Ticket(
                kind=TicketKind.RELATIVE,
                face_value=float(face_value),
                backing=backing,
                issuer=issuer,
                name=name,
            )
        )

    @mutates
    def revoke_ticket(self, ticket_id: int) -> None:
        """End the agreement the ticket expresses (its value drops to zero).

        The bank forgets the ticket and keeps only its id, so every
        later flatten walks live tickets alone.
        """
        if ticket_id in self._revoked:
            raise TicketRevokedError(f"ticket {ticket_id} is already revoked")
        self.ticket(ticket_id).revoked = True
        del self._tickets[ticket_id]
        self._revoked.add(ticket_id)

    @mutates
    def inflate_currency(self, name: str, factor: float) -> None:
        """Inflate/deflate a currency (Section 2.2's "printing paper money")."""
        self.currency(name).inflate(factor)

    # -- valuation -------------------------------------------------------------

    def resource_types(self) -> list[str]:
        """All concrete resource types appearing on absolute tickets."""
        types = {t.resource_type for t in self._tickets.values()}
        types.discard("*")
        return sorted(types)

    def _funding(self) -> tuple[list[str], np.ndarray, np.ndarray, list[str]]:
        """The funding graph as one linear system, built in one ticket walk.

        Returns ``(names, M, B, types)`` over every currency in creation
        order: ``M[c, q]`` sums ``face / face(q)`` over the relative
        tickets ``q`` issues to ``c``, and ``B[c, k]`` sums the absolute
        tickets (deposits included) of resource type ``types[k]`` backing
        ``c``.  Values solve ``v = B + M v`` columnwise.
        """
        names = list(self._currencies)
        index = {n: i for i, n in enumerate(names)}
        types = self.resource_types()
        tindex = {t: k for k, t in enumerate(types)}
        M = np.zeros((len(names), len(names)))
        B = np.zeros((len(names), len(types)))
        for t in self._tickets.values():
            c = index[t.backing]
            if t.kind is TicketKind.ABSOLUTE:
                B[c, tindex[t.resource_type]] += t.face_value
            else:
                M[c, index[t.issuer]] += t.face_value / self._currencies[t.issuer].face_value
        return names, M, B, types

    def currency_values(self) -> dict[str, ResourceVector]:
        """Value of every currency as a :class:`~repro.units.ResourceVector`."""
        names, M, B, types = self._funding()
        values = _solve_funding(M, B)
        return {
            name: ResourceVector({t: float(values[i, k]) for k, t in enumerate(types)})
            for i, name in enumerate(names)
        }

    def currency_value(self, name: str) -> ResourceVector:
        """Value of one currency (computes the full system)."""
        self.currency(name)
        return self.currency_values()[name]

    def ticket_real_value(self, ticket_id: int) -> ResourceVector:
        """Real value of a ticket.

        Absolute tickets are worth their face value; relative tickets are
        worth ``value(issuer) * face / issuer.face_value`` (Example 1:
        R-Ticket4 = 10 * 500/1000 = 5).
        """
        if ticket_id in self._revoked:
            return ResourceVector()
        t = self.ticket(ticket_id)
        if t.kind is TicketKind.ABSOLUTE:
            return ResourceVector({t.resource_type: t.face_value})
        issuer = self.currency(t.issuer)
        return self.currency_value(t.issuer) * (t.face_value / issuer.face_value)

    def overissued_currencies(self) -> list[str]:
        """Currencies whose issued relative faces exceed their face value.

        Such currencies promise more than 100% of their value — the
        "overdraft" situation of Section 3.2: a column of the funding
        matrix sums above 1.  Legal: every topology clamps its
        coefficients (:meth:`repro.agreements.AgreementTopology.coefficients`), so
        no chain moves more than 100% of the issuer's resources.
        """
        names, M, _, _ = self._funding()
        issued = M.sum(axis=0)
        return sorted(name for name, f in zip(names, issued) if f > 1 + 1e-12)

    # -- export to the enforcement layer ------------------------------------------

    def to_agreement_system(
        self, resource_type: str = "general"
    ) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
        """Flatten the funding graph into ``(principals, V, S, A)``.

        ``principals`` are the default currencies in creation order.  ``V``
        is raw owned capacity of the given resource type (base deposits into
        default currencies).  ``S[i, j]`` is the effective *fraction* of
        principal ``i``'s resources shared with principal ``j`` — direct
        relative tickets plus chains through virtual currencies (Example 2:
        A -> A2 -> B composes ``500/1000 * face8/face(A2)``).  ``A[i, j]``
        is the effective *absolute* quantity granted, including absolute
        tickets issued from virtual currencies (attributed to the virtual
        currency's owner) and the absolute component of relative tickets
        issued by virtual currencies funded with absolute tickets.

        The virtual block of the funding system is eliminated (see the
        module's "Flattening"); the matrices feed the cached topology
        behind :meth:`topology` and :meth:`capacity_view`.
        """
        names, M, B, types = self._funding()
        virtual = np.array([c.virtual for c in self._currencies.values()], dtype=bool)
        d, w = np.flatnonzero(~virtual), np.flatnonzero(virtual)
        principals = [names[i] for i in d]
        pindex = {p: i for i, p in enumerate(principals)}
        n = len(principals)
        b_W = B[w, types.index(resource_type)] if resource_type in types else np.zeros(len(w))
        # X = (I - M_WW)^-1 [M_WD | b_W]: what each virtual currency holds,
        # per unit of each principal's resources plus an absolute column.
        X = _solve_funding(M[np.ix_(w, w)], np.column_stack([M[np.ix_(w, d)], b_W]))
        M_DW = M[np.ix_(d, w)]
        S = M[np.ix_(d, d)].T + (M_DW @ X[:, :n]).T
        np.fill_diagonal(S, 0.0)

        V = np.zeros(n)
        A = np.zeros((n, n))
        for t in self._tickets.values():
            if t.kind is TicketKind.RELATIVE or t.resource_type != resource_type:
                continue
            j = pindex.get(t.backing)
            if j is None:
                continue  # funds a virtual currency: in b_W
            if t.issuer is None:
                V[j] += t.face_value
            elif (owner := self._currencies[t.issuer].owner) in pindex:
                A[pindex[owner], j] += t.face_value
        for k, i in enumerate(w):
            owner = self._currencies[names[i]].owner
            if owner in pindex:
                A[pindex[owner]] += M_DW[:, k] * X[k, n]
        np.fill_diagonal(A, 0.0)
        return principals, V, S, A

    def _flattened(self, resource_type: str) -> tuple[int, AgreementTopology, np.ndarray]:
        """The version-keyed cache entry behind :meth:`topology`.

        Rebuilds (re-flattening the funding graph and discarding the old
        coefficient cache) only when the bank has been mutated since the
        entry was made; every other call is a dictionary hit.  A rebuild
        hands the old topology's coefficient plans to the new one, which
        replays a level's plan if the new shares fit its pattern and
        records a new one otherwise; the bank's first topology keeps none.
        Counters: ``topology.cache_hit`` / ``topology.cache_miss``; each
        rebuild is a ``topology.rebuild`` span.
        """
        obs = get_observer()
        entry = self._topology_cache.get(resource_type)
        if entry is not None and entry[0] == self._version:
            if obs.enabled:
                obs.counter("topology.cache_hit", resource_type=resource_type)
            return entry
        obs.counter("topology.cache_miss", resource_type=resource_type)
        with obs.span(
            "topology.rebuild", resource_type=resource_type, version=self._version
        ):
            principals, V, S, A = self.to_agreement_system(resource_type)
            topology = AgreementTopology(principals, S, A if np.any(A) else None)
            if entry is not None:
                topology._adopt_plans(entry[1])
        V = np.asarray(V, dtype=float)
        V.flags.writeable = False
        entry = (self._version, topology, V)
        self._topology_cache[resource_type] = entry
        return entry

    def topology(self, resource_type: str = "general") -> AgreementTopology:
        """The flattened agreement topology, cached on ``(version, resource_type)``.

        The returned :class:`~repro.agreements.topology.AgreementTopology`
        is shared between callers until the next bank mutation, so its
        per-level coefficient cache amortises across every allocation in
        an epoch — the hot-path win the GRM relies on.  Any mutation
        (create/issue/revoke/deposit/inflate) bumps :attr:`version` and
        forces a rebuild on next access, which is what makes a ticket
        revocation take effect on the very next scheduling decision.
        """
        return self._flattened(resource_type)[1]

    def base_capacities(self, resource_type: str = "general") -> np.ndarray:
        """Raw owned capacities ``V`` (base deposits), cache-aligned with
        :meth:`topology` and in the same principal order."""
        return self._flattened(resource_type)[2]

    def capacity_view(self, resource_type: str = "general") -> CapacityView:
        """A :class:`~repro.agreements.topology.CapacityView` of the bank's
        deposited capacities over the cached topology."""
        _, topology, V = self._flattened(resource_type)
        return topology.view(V)
