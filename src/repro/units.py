"""Resource quantities and resource vectors.

The paper represents both resource availability and resource requests as
*vectors*, "with entries quantifying the quantity or need for each different
kind of resource" (Section 2).  :class:`ResourceVector` is that type: an
immutable mapping from resource-type name to a non-negative quantity with
vector arithmetic, dominance comparison, and support for *coupled* resources
(Section 3.2's "bind these types of resources into a new type of resource so
that they are always allocated together").
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

from .errors import ReproError

__all__ = ["ResourceVector", "CoupledResource", "ZERO"]

_QUANTITY_TOL = 1e-12
#: decimals ``==`` and ``hash`` round quantities to (the tolerance's grid)
_QUANTITY_DIGITS = 12


def _check_quantity(name: str, value: float) -> float:
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ReproError(f"resource {name!r} has non-finite quantity {value!r}")
    if value < -_QUANTITY_TOL:
        raise ReproError(f"resource {name!r} has negative quantity {value!r}")
    return max(value, 0.0)


class ResourceVector(Mapping[str, float]):
    """An immutable vector of named resource quantities.

    Missing entries are implicitly zero, so vectors over different resource
    sets compose naturally::

        >>> a = ResourceVector(cpu=2.0, disk=10.0)
        >>> b = ResourceVector(disk=5.0, net=1.0)
        >>> (a + b)["disk"]
        15.0
        >>> a.dominates(ResourceVector(cpu=1.0))
        True
    """

    __slots__ = ("_data",)

    def __init__(self, entries: Mapping[str, float] | None = None, **kwargs: float):
        data: dict[str, float] = {}
        if entries is not None:
            for name, value in entries.items():
                data[str(name)] = _check_quantity(name, value)
        for name, value in kwargs.items():
            data[name] = _check_quantity(name, value)
        # Drop exact zeros so equality is independent of zero padding.
        self._data = {k: v for k, v in data.items() if v > 0.0}

    # -- Mapping protocol --------------------------------------------------

    def __getitem__(self, name: str) -> float:
        return self._data.get(name, 0.0)

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, name: object) -> bool:
        return name in self._data

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        if not isinstance(other, ResourceVector):
            return NotImplemented
        names = set(self._data) | set(other._data)
        return ResourceVector({n: self[n] + other[n] for n in names})

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        """Subtract, clamping at zero (resources cannot go negative)."""
        if not isinstance(other, ResourceVector):
            return NotImplemented
        names = set(self._data) | set(other._data)
        return ResourceVector({n: max(self[n] - other[n], 0.0) for n in names})

    def __mul__(self, scalar: float) -> "ResourceVector":
        scalar = float(scalar)
        if scalar < 0:
            raise ReproError("cannot scale a ResourceVector by a negative factor")
        return ResourceVector({n: v * scalar for n, v in self._data.items()})

    __rmul__ = __mul__

    # -- comparisons ----------------------------------------------------------

    def dominates(self, other: "ResourceVector", tol: float = 1e-9) -> bool:
        """True if this vector is componentwise >= ``other`` (within ``tol``)."""
        return all(self[n] + tol >= q for n, q in other.items())

    def _quantised(self) -> frozenset[tuple[str, float]]:
        """The entries rounded to ``_QUANTITY_DIGITS``, zeros dropped: the
        one key both ``==`` and ``hash`` compare, so equal vectors hash
        equally."""
        rounded = ((k, round(v, _QUANTITY_DIGITS)) for k, v in self._data.items())
        return frozenset((k, q) for k, q in rounded if q > 0.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return self._quantised() == other._quantised()

    def __hash__(self) -> int:
        return hash(self._quantised())

    # -- utilities -----------------------------------------------------------

    @property
    def total(self) -> float:
        """Sum of all quantities (meaningful when resources share a unit)."""
        return sum(self._data.values())

    def resource_types(self) -> frozenset[str]:
        return frozenset(self._data)

    def is_zero(self, tol: float = _QUANTITY_TOL) -> bool:
        return all(v <= tol for v in self._data.values())

    def scaled_to_fit(self, budget: "ResourceVector") -> float:
        """Largest ``f`` in [0, 1] such that ``f * self`` fits within ``budget``."""
        f = 1.0
        for name, need in self._data.items():
            if need > 0:
                f = min(f, budget[name] / need)
        return max(f, 0.0)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._data.items()))
        return f"ResourceVector({inner})"


ZERO = ResourceVector()
"""The empty (all-zero) resource vector."""


@dataclass(frozen=True)
class CoupledResource:
    """A named bundle of resource types that must be allocated together.

    Section 3.2: "CPU and memory resources need to be on the same machine and
    cannot be allocated separately. One way to solve [this] is to bind these
    types of resources into a new type of resource so that they are always
    allocated together."

    A coupled resource defines a fixed *ratio* between its constituents; one
    unit of the bundle consumes ``ratio[r]`` units of each constituent ``r``.
    """

    name: str
    ratio: ResourceVector = field(default_factory=ResourceVector)

    def __post_init__(self) -> None:
        if self.ratio.is_zero():
            raise ReproError(f"coupled resource {self.name!r} must bundle at least one resource")

    def units_from(self, available: ResourceVector) -> float:
        """How many units of the bundle fit inside ``available``."""
        units = math.inf
        for res, per_unit in self.ratio.items():
            units = min(units, available[res] / per_unit)
        return max(units, 0.0)

    def expand(self, units: float) -> ResourceVector:
        """The constituent resources consumed by ``units`` of the bundle."""
        return self.ratio * units
