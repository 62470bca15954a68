"""Runtime invariant sanitizer for the agreement economy (``REPRO_SANITIZE=1``).

Structure and the tier-1 tests (``docs/static-analysis.md``) keep the
*code* honest; this module asserts the agreement contracts about *live
values*, in cheap epilogue hooks at the spots where a violated invariant
would otherwise propagate silently into later decisions:

- **Bank** (:meth:`repro.economy.Bank._bump_version`): the version
  counter is strictly monotonic, and — checked from the GRM epilogue —
  the currency valuation never changes while the version stands still
  (a tampered ticket or an un-bumped mutation would poison every
  version-keyed topology cache downstream).
- **Allocators** (:meth:`repro.allocation.problem.Allocation.finalize`,
  the epilogue every allocator ends with): takes are non-negative and
  conserve the satisfied amount, ``theta >= 0``, and post-allocation
  effective capacities never exceed pre-allocation ones (``C' <= C``),
  and each take stays within its agreement bound (constraint (4)), for
  every scheme.
- **GRM** (:meth:`~repro.manager.grm.GlobalResourceManager._allocate`):
  the donor split on the grant message sums to the granted amount.
- **Topology** (:meth:`~repro.agreements.topology.AgreementTopology.coefficients`):
  transitive coefficients are non-negative with a zero diagonal, and the
  Section-3.2 overdraft clamp keeps ``K`` within ``[0, 1]``; a ``T``
  replayed from a kept coefficient plan equals a from-scratch DP's bit
  for bit.

Failures raise :class:`~repro.errors.InvariantViolation`; when an
allocation decision is in flight (:func:`repro.obs.decision.current_decision`)
a snapshot of the half-built :class:`~repro.obs.decision.DecisionRecord`
rides along on the exception, so the audit context survives the crash.

Everything is gated on :func:`enabled` — initialised from the
``REPRO_SANITIZE`` environment variable and togglable at runtime
(:func:`enable` / :func:`disable`) for tests.  Disabled, every hook is a
single predicate check.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InvariantViolation
from .obs import _env_truthy

__all__ = [
    "enabled",
    "enable",
    "disable",
    "violation",
    "bank_mutated",
    "check_bank",
    "check_grant",
    "check_allocation",
    "check_coefficients",
    "check_replay",
]

#: conservation tolerance — looser than the LP's own feasibility
#: tolerance so solver slack never trips a false positive
_TOL = 1e-6


_enabled = _env_truthy(os.environ.get("REPRO_SANITIZE"))


def enabled() -> bool:
    """Whether the sanitizer hooks are active."""
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def violation(invariant: str, message: str, **details) -> None:
    """Raise :class:`InvariantViolation`, attaching the active decision.

    Imports :mod:`repro.obs.decision` lazily so the disabled path never
    touches the observability stack.
    """
    from .obs.decision import DecisionRecord, current_decision

    decision = None
    builder = current_decision()
    if builder is not None and getattr(builder, "fields", None):
        decision = DecisionRecord.from_fields(dict(builder.fields))
    raise InvariantViolation(
        message, invariant=invariant, details=details, decision=decision
    )


# -- bank ---------------------------------------------------------------------


def bank_mutated(bank, prev_version: int) -> None:
    """Epilogue of :meth:`Bank._bump_version`: the counter moved forward."""
    if bank.version <= prev_version:
        violation(
            "bank-version-monotonic",
            "bank version did not advance on mutation",
            prev_version=prev_version,
            version=bank.version,
        )


def check_bank(bank) -> None:
    """The bank's valuation is consistent with its version counter.

    Recomputes currency values and compares them against the snapshot
    taken at the same version.  A mismatch means bank state changed
    *without* a version bump — e.g. a ticket's ``face_value`` was
    assigned directly — which silently invalidates every version-keyed
    topology cache.  Skipped (and the snapshot cleared) when valuation
    itself fails, so a deliberately cyclic funding graph still raises
    its own :class:`~repro.errors.CurrencyCycleError` at the documented
    call sites.
    """
    from .errors import EconomyError

    try:
        current = bank.currency_values()
    except EconomyError:
        bank._sanitize_state = None
        return
    state = getattr(bank, "_sanitize_state", None)
    if state is not None and state[0] == bank.version:
        snapshot = state[1]
        names = set(snapshot) | set(current)
        for name in names:
            vec_then = snapshot.get(name)
            vec_now = current.get(name)
            if vec_then is None or vec_now is None or vec_then != vec_now:
                violation(
                    "bank-value-conservation",
                    "bank state changed without a version bump "
                    "(ticket/currency values drifted at a constant version)",
                    bank_version=bank.version,
                    currency=name,
                    value_then=None if vec_then is None else dict(vec_then),
                    value_now=None if vec_now is None else dict(vec_now),
                )
    bank._sanitize_state = (bank.version, current)


# -- allocation ---------------------------------------------------------------


def check_grant(takes, granted: float) -> None:
    """The donor split on a grant sums to the granted amount."""
    total = float(sum(t for _, t in takes))
    if abs(total - float(granted)) > _TOL:
        violation(
            "donor-split-conservation",
            "grant's donor split does not sum to the granted amount",
            granted=float(granted),
            split_total=total,
            takes=[(p, float(t)) for p, t in takes],
        )
    for p, t in takes:
        if t < -_TOL:
            violation(
                "donor-split-nonnegative",
                "grant contains a negative take",
                donor=p,
                take=float(t),
            )


def check_allocation(C_before, allocation, bound=None) -> None:
    """Postconditions of every allocator result, run by ``Allocation.finalize``.

    Asserts the Section-3.1 postconditions on the finished
    :class:`~repro.allocation.problem.Allocation`: non-negative takes
    that conserve ``satisfied``, a non-negative perturbation ``theta``,
    and effective capacities that only ever shrink (``C' <= C``).  With
    ``bound`` (constraint (4): ``U_kA`` for a donor ``k``, ``V_A`` for
    the requester) no take may exceed its entry.
    """
    take = np.asarray(allocation.take, dtype=float)
    if take.size and float(take.min()) < -_TOL:
        violation(
            "take-nonnegative",
            "allocation contains a negative take",
            scheme=allocation.scheme,
            min_take=float(take.min()),
        )
    if bound is not None and take.size:
        over_idx = int(np.argmax(take - bound))
        if float(take[over_idx] - bound[over_idx]) > _TOL:
            violation(
                "take-agreement-bound",
                "a take exceeds its agreement bound (take[k] > U[k, A], "
                "or the requester's take > V[A])",
                scheme=allocation.scheme,
                index=over_idx,
                take=float(take[over_idx]),
                bound=float(bound[over_idx]),
            )
    total = float(take.sum())
    if abs(total - float(allocation.satisfied)) > _TOL:
        violation(
            "take-conservation",
            "sum of takes does not equal the satisfied amount",
            scheme=allocation.scheme,
            satisfied=float(allocation.satisfied),
            take_total=total,
        )
    if float(allocation.theta) < -_TOL:
        violation(
            "theta-nonnegative",
            "allocation perturbation theta is negative",
            scheme=allocation.scheme,
            theta=float(allocation.theta),
        )
    if C_before is not None and allocation.new_C is not None:
        before = np.asarray(C_before, dtype=float)
        after = np.asarray(allocation.new_C, dtype=float)
        if before.shape == after.shape and after.size:
            excess_idx = int(np.argmax(after - before))
            if float(after[excess_idx] - before[excess_idx]) > _TOL:
                violation(
                    "capacity-monotone",
                    "post-allocation effective capacity exceeds the "
                    "pre-allocation one (C' > C)",
                    scheme=allocation.scheme,
                    index=excess_idx,
                    before=float(before[excess_idx]),
                    after=float(after[excess_idx]),
                )


# -- topology -----------------------------------------------------------------


def check_coefficients(T) -> None:
    """Clamped coefficients are well-formed.

    ``K^(m)`` entries are fractions of a donor's resources, so they are
    non-negative with a zero diagonal, and Section 3.2's clamp
    ``K = min(T, 1)`` bounds them by 1.
    """
    T = np.asarray(T, dtype=float)
    if T.size == 0:
        return
    if float(T.min()) < -_TOL:
        violation(
            "coefficients-nonnegative",
            "transitive coefficient matrix has a negative entry",
            min_entry=float(T.min()),
        )
    diag_max = float(np.abs(np.diag(T)).max()) if T.shape[0] else 0.0
    if diag_max > _TOL:
        violation(
            "coefficients-zero-diagonal",
            "transitive coefficient matrix has a nonzero diagonal",
            diag_max=diag_max,
        )
    if float(T.max()) > 1.0 + _TOL:
        violation(
            "overdraft-clamp-bounds",
            "overdraft clamp K exceeded 1 (K must lie in [0, 1])",
            max_entry=float(T.max()),
        )


def check_replay(replayed, scratch) -> None:
    """A ``T`` replayed from a coefficient plan is the from-scratch DP's,
    bit for bit: the plan's extra states carry exact zeros, so any
    difference means the plan dropped a live move or the products were
    summed in another order."""
    replayed, scratch = np.asarray(replayed), np.asarray(scratch)
    if replayed.tobytes() != scratch.tobytes():
        violation(
            "coefficients-replay-exact",
            "a replayed coefficient plan gave a different T than the full DP",
            max_diff=float(np.max(np.abs(replayed - scratch), initial=0.0)),
        )
