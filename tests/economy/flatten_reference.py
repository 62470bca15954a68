"""Per-ticket reference for :meth:`repro.economy.Bank.to_agreement_system`.

The oracle the bank's block elimination is verified against.  It
composes every relative ticket on its own: a virtual currency's
contribution (principal fractions plus an absolute part) comes from a
small solve over virtual-to-virtual tickets, and each ticket that funds
a principal adds its issuer's contribution, scaled by its fraction, to
``S`` and ``A`` one donor at a time.  Negative contributions are
dropped rather than reported, so it is meaningful only on economies
without expansive virtual cycles.
"""

from __future__ import annotations

import numpy as np

from repro.economy.ticket import TicketKind
from repro.errors import CurrencyCycleError

_SINGULAR_TOL = 1e-10


def to_agreement_system(bank, resource_type: str = "general"):
    """Oracle: ``(principals, V, S, A)`` composed ticket by ticket."""
    currencies = {c.name: c for c in bank.currencies}
    principals = bank.principals()
    pindex = {p: i for i, p in enumerate(principals)}
    virtuals = [c.name for c in currencies.values() if c.virtual]
    vindex = {v: i for i, v in enumerate(virtuals)}
    n, nv = len(principals), len(virtuals)

    # contrib(c) for a currency c = (alpha over principals, beta) where
    # value-flow into c = sum_p alpha_p * flow(default_p) + beta.
    # Defaults contribute a unit of themselves; virtual currencies solve
    # a small linear system over virtual-to-virtual relative tickets.
    Mv = np.zeros((nv, nv))
    Bv = np.zeros((nv, n + 1))  # last column: absolute component
    for t in bank.tickets:
        if t.backing not in vindex:
            continue
        r = vindex[t.backing]
        if t.kind is TicketKind.ABSOLUTE:
            if t.resource_type == resource_type:
                Bv[r, n] += t.face_value
        else:
            frac = t.face_value / currencies[t.issuer].face_value
            if t.issuer in pindex:
                Bv[r, pindex[t.issuer]] += frac
            else:
                Mv[r, vindex[t.issuer]] += frac
    if nv:
        Av = np.eye(nv) - Mv
        if np.linalg.cond(Av) > 1 / _SINGULAR_TOL:
            raise CurrencyCycleError(
                "virtual currencies form a non-contractive funding cycle"
            )
        contrib_v = np.linalg.solve(Av, Bv)
    else:
        contrib_v = np.zeros((0, n + 1))

    def contribution(currency: str) -> np.ndarray:
        out = np.zeros(n + 1)
        if currency in pindex:
            out[pindex[currency]] = 1.0
        else:
            out[:] = contrib_v[vindex[currency]]
        return out

    V = np.zeros(n)
    S = np.zeros((n, n))
    A = np.zeros((n, n))
    for t in bank.tickets:
        if t.is_base_capacity:
            if t.backing in pindex and t.resource_type == resource_type:
                V[pindex[t.backing]] += t.face_value
            continue
        if t.backing not in pindex:
            continue  # funds a virtual currency; handled via contrib
        j = pindex[t.backing]
        if t.kind is TicketKind.ABSOLUTE:
            if t.resource_type != resource_type:
                continue
            owner = currencies[t.issuer].owner
            if owner in pindex and owner != t.backing:
                A[pindex[owner], j] += t.face_value
        else:
            frac = t.face_value / currencies[t.issuer].face_value
            c = contribution(t.issuer) * frac
            for i in range(n):
                if i != j and c[i] > 0:
                    S[i, j] += c[i]
            if c[n] > 0:
                owner = currencies[t.issuer].owner
                if owner in pindex and owner != t.backing:
                    A[pindex[owner], j] += c[n]
    return principals, V, S, A
