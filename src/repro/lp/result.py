"""Solver-independent LP result types."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = ["LPStatus", "LPResult"]


class LPStatus(enum.Enum):
    """Outcome of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


@dataclass
class LPResult:
    """Result of one :func:`~repro.lp.solver.solve` call.

    Attributes
    ----------
    status:
        Solve outcome.
    objective:
        Optimal objective value (``nan`` unless :attr:`status` is OPTIMAL).
    x:
        Optimal variable values, in the order of the columns of ``c``.
    backend:
        Which solver produced the result (``"scipy"`` or ``"simplex"``).
    iterations:
        Solver iteration count when available.
    """

    status: LPStatus
    objective: float = float("nan")
    x: np.ndarray = field(default_factory=lambda: np.empty(0))
    backend: str = ""
    iterations: int = 0

    @property
    def ok(self) -> bool:
        return self.status is LPStatus.OPTIMAL
