"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
downstream users can catch a single base class.  Sub-hierarchies mirror the
package layout: economy (tickets/currencies), agreements (matrices/flow),
LP substrate, allocation engine, manager, and simulation.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "EconomyError",
    "UnknownCurrencyError",
    "UnknownTicketError",
    "DuplicateNameError",
    "CurrencyCycleError",
    "TicketRevokedError",
    "AgreementError",
    "InvalidAgreementMatrixError",
    "AllocationError",
    "InsufficientResourcesError",
    "InfeasibleAllocationError",
    "LPError",
    "LPSolverError",
    "ManagerError",
    "UnknownPrincipalError",
    "SimulationError",
    "WorkloadError",
    "InvariantViolation",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# --------------------------------------------------------------------------
# Economy (tickets and currencies)
# --------------------------------------------------------------------------


class EconomyError(ReproError):
    """Base class for ticket/currency economy errors."""


class UnknownCurrencyError(EconomyError, KeyError):
    """A currency name was not found in the bank."""


class UnknownTicketError(EconomyError, KeyError):
    """A ticket id was not found in the bank."""


class DuplicateNameError(EconomyError, ValueError):
    """A currency or ticket with this name already exists."""


class CurrencyCycleError(EconomyError):
    """The currency funding graph contains a cycle, so values are undefined."""


class TicketRevokedError(EconomyError):
    """Operation attempted on a ticket that has been revoked."""


# --------------------------------------------------------------------------
# Agreements (matrices, structures, transitive flow)
# --------------------------------------------------------------------------


class AgreementError(ReproError):
    """Base class for agreement-matrix errors."""


class InvalidAgreementMatrixError(AgreementError, ValueError):
    """An agreement matrix violates a structural constraint.

    The paper's constraints on the relative matrix ``S`` are ``S_ii = 0``
    and ``S_ij >= 0``; every entry of ``S``, ``A`` and ``V`` must also be
    finite.  A row sum past 1 is Section 3.2's overdraft, which is legal
    and clamped rather than rejected.
    """


# --------------------------------------------------------------------------
# Allocation engine
# --------------------------------------------------------------------------


class AllocationError(ReproError):
    """Base class for allocation failures."""


class InsufficientResourcesError(AllocationError):
    """The requesting principal's capacity ``C_A`` is below the request."""

    def __init__(self, principal, requested: float, available: float):
        self.principal = principal
        self.requested = float(requested)
        self.available = float(available)
        super().__init__(
            f"principal {principal!r} requested {requested:g} but only "
            f"{available:g} is available (directly or transitively)"
        )


class InfeasibleAllocationError(AllocationError):
    """The allocation LP is infeasible even though capacity checks passed."""


# --------------------------------------------------------------------------
# LP substrate
# --------------------------------------------------------------------------


class LPError(ReproError):
    """Base class for linear-programming substrate errors."""


class LPSolverError(LPError):
    """The backend solver failed for a reason other than infeasible/unbounded."""


# --------------------------------------------------------------------------
# Manager (GRM / LRM)
# --------------------------------------------------------------------------


class ManagerError(ReproError):
    """Base class for resource-manager errors."""


class UnknownPrincipalError(ManagerError, KeyError):
    """A principal id was not registered with the manager."""


# --------------------------------------------------------------------------
# Simulation and workload
# --------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event-simulation errors."""


class WorkloadError(ReproError):
    """Base class for workload-generation and trace-parsing errors."""


# --------------------------------------------------------------------------
# Runtime invariant sanitizer (REPRO_SANITIZE=1)
# --------------------------------------------------------------------------


class InvariantViolation(ReproError):
    """A runtime invariant of the agreement economy does not hold.

    Raised by the :mod:`repro.sanitize` epilogue hooks (active under
    ``REPRO_SANITIZE=1``) when a check fails: ticket/currency value
    conservation, overdraft clamp bounds, donor-split conservation,
    ``C' <= C``, or bank-version monotonicity.  When an allocation
    decision is in flight, the active
    :class:`~repro.obs.decision.DecisionRecord` snapshot is attached as
    :attr:`decision`, so the full request context (requestor, amount,
    donor split, LP evidence) travels with the traceback.
    """

    def __init__(
        self,
        message: str,
        *,
        invariant: str = "",
        details: dict | None = None,
        decision=None,
    ):
        self.invariant = invariant
        self.details = dict(details or {})
        self.decision = decision
        parts = [message]
        if self.details:
            rendered = ", ".join(f"{k}={v!r}" for k, v in self.details.items())
            parts.append(f"[{rendered}]")
        if decision is not None:
            rid = getattr(decision, "request_id", None)
            requestor = getattr(decision, "requestor", "")
            parts.append(f"(decision: request_id={rid}, requestor={requestor!r})")
        super().__init__(" ".join(parts))
