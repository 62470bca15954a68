"""LP model builder.

:class:`LinearProgram` accumulates named variables and linear constraints,
normalises them into the dense array form
``min c.x  s.t.  A_ub x <= b_ub,  A_eq x == b_eq,  lb <= x <= ub``
and solves that with :func:`repro.lp.solver.solve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import LPError
from . import solver
from .expr import LinExpr, Relation, Variable
from .result import LPResult

__all__ = ["LinearProgram", "Constraint"]


@dataclass(frozen=True)
class Constraint:
    """A normalised constraint ``expr <sense> bound`` (expr has no constant)."""

    name: str
    coeffs: dict[int, float]
    sense: str  # "<=" or "=="
    bound: float


class LinearProgram:
    """A minimisation linear program with named variables.

    Variables carry bounds (default ``[0, +inf)``); constraints are built
    from overloaded arithmetic on :class:`~repro.lp.expr.Variable` handles.
    ``>=`` constraints are normalised to ``<=`` by negation; the objective
    defaults to 0 (pure feasibility problem).
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self._vars: list[Variable] = []
        self._names: dict[str, int] = {}
        self._constraints: list[Constraint] = []
        self._objective: LinExpr = LinExpr()
        self._obj_sense: str = "min"

    # -- construction --------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return len(self._vars)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(self._constraints)

    def variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = math.inf,
    ) -> Variable:
        """Create a new variable; names must be unique within the model."""
        if name in self._names:
            raise LPError(f"duplicate variable name {name!r}")
        if lower > upper:
            raise LPError(f"variable {name!r} has empty bound interval [{lower}, {upper}]")
        var = Variable(len(self._vars), name, float(lower), float(upper))
        self._vars.append(var)
        self._names[name] = var.index
        return var

    def variables(self, prefix: str, count: int, **kwargs) -> list[Variable]:
        """Create ``count`` variables named ``{prefix}{i}``."""
        return [self.variable(f"{prefix}{i}", **kwargs) for i in range(count)]

    def get_variable(self, name: str) -> Variable:
        try:
            return self._vars[self._names[name]]
        except KeyError:
            raise LPError(f"no variable named {name!r}") from None

    def add_constraint(self, relation: Relation, name: str = "") -> Constraint:
        """Add a constraint built with ``<=``, ``>=`` or ``==`` on expressions."""
        if not isinstance(relation, Relation):
            raise LPError(
                "add_constraint expects a comparison of LP expressions "
                f"(got {type(relation).__name__}); note that `x == y` on "
                "non-expression operands short-circuits in Python"
            )
        diff = relation.lhs._add(relation.rhs * -1.0)
        coeffs = {i: c for i, c in diff.coeffs.items() if c != 0.0}
        bound = -diff.const
        sense = relation.sense
        if sense == ">=":
            coeffs = {i: -c for i, c in coeffs.items()}
            bound = -bound
            sense = "<="
        if not coeffs:
            # Constant constraint: verify satisfiability immediately.
            ok = bound >= -1e-9 if sense == "<=" else abs(bound) <= 1e-9
            if not ok:
                raise LPError(f"constraint {name or '<anon>'} is trivially infeasible")
        con = Constraint(name or f"c{len(self._constraints)}", coeffs, sense, bound)
        self._constraints.append(con)
        return con

    def minimize(self, expr) -> None:
        """Set the objective to minimise ``expr``."""
        self._objective = expr._as_expr() if not isinstance(expr, LinExpr) else expr
        self._obj_sense = "min"

    def maximize(self, expr) -> None:
        """Set the objective to maximise ``expr`` (stored negated)."""
        self.minimize(expr)
        self._obj_sense = "max"

    # -- normalisation ---------------------------------------------------------

    def to_arrays(self):
        """Return ``(c, A_ub, b_ub, A_eq, b_eq, bounds, const)`` arrays.

        ``const`` is the objective's constant term (added back to the
        reported objective).  For a ``max`` objective the returned ``c`` is
        negated and callers must negate the optimum (``solve`` handles this).
        """
        n = len(self._vars)
        c = np.zeros(n)
        for i, coef in self._objective.coeffs.items():
            c[i] = coef
        sign = -1.0 if self._obj_sense == "max" else 1.0
        c *= sign

        ub_rows = [con for con in self._constraints if con.sense == "<="]
        eq_rows = [con for con in self._constraints if con.sense == "=="]

        def build(rows):
            A = np.zeros((len(rows), n))
            b = np.zeros(len(rows))
            for r, con in enumerate(rows):
                for i, coef in con.coeffs.items():
                    A[r, i] = coef
                b[r] = con.bound
            return A, b

        A_ub, b_ub = build(ub_rows)
        A_eq, b_eq = build(eq_rows)
        bounds = [(v.lower, v.upper) for v in self._vars]
        return c, A_ub, b_ub, A_eq, b_eq, bounds, sign * self._objective.const

    # -- solving -----------------------------------------------------------------

    def solve(self, backend: str = "scipy", **options) -> LPResult:
        """Solve the model with the given backend (``"scipy"`` or ``"simplex"``).

        The returned objective is always in the user's sense (a ``max``
        model reports the maximum).
        """
        c, A_ub, b_ub, A_eq, b_eq, bounds, const = self.to_arrays()
        result = solver.solve(
            c, A_ub, b_ub, A_eq, b_eq, bounds, backend=backend, model=self.name, **options
        )
        result.names = tuple(v.name for v in self._vars)
        if result.ok:
            result.objective += const
            if self._obj_sense == "max":
                result.objective = -result.objective
        return result

    def __repr__(self) -> str:
        return (
            f"LinearProgram({self.name!r}, vars={self.num_variables}, "
            f"constraints={self.num_constraints})"
        )
