"""Currency objects.

"Currencies denominate tickets.  Each currency is backed (or funded) by
tickets and in turn issues its own tickets" (Section 2.2).  A currency's
*face value* is the number of units outstanding — the denominator used when
valuing the relative tickets it issues.  Changing the face value inflates or
deflates the currency "similar to inflation caused by the government
printing more paper money".

A *virtual* currency (Example 2 / Figure 2) is an extra currency created by
a participant, funded from the participant's default currency, whose purpose
is to decouple one subset of agreements from fluctuations in another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import EconomyError

__all__ = ["Currency"]

DEFAULT_FACE_VALUE = 100.0


@dataclass
class Currency:
    """A currency in the funding graph.

    Attributes
    ----------
    name:
        Unique name within a :class:`~repro.economy.bank.Bank`.
    face_value:
        Units outstanding; the denominator for relative tickets issued by
        this currency.  Example 1 uses 1000 for currency A and 100 for B.
    owner:
        The principal the currency belongs to.  Default currencies are
        named after their principal; virtual currencies record their
        creator here.
    virtual:
        True for virtual currencies (Example 2).
    """

    name: str
    face_value: float = DEFAULT_FACE_VALUE
    owner: str | None = None
    virtual: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.face_value) and self.face_value > 0):
            raise EconomyError(
                f"currency {self.name!r} must have a positive finite face value, "
                f"got {self.face_value!r}"
            )
        if self.owner is None:
            self.owner = self.name

    def inflate(self, factor: float) -> None:
        """Multiply the number of outstanding units by ``factor`` (> 0).

        Inflating (factor > 1) reduces the real value of every relative
        ticket already issued by this currency; deflating (< 1) raises it.
        A factor that is not finite, or that would leave the face value
        zero or infinite, is rejected and leaves the currency unchanged.
        """
        face = self.face_value * factor
        if not (math.isfinite(face) and face > 0):
            raise EconomyError(
                f"inflation factor must be positive and finite, got {factor!r}"
            )
        self.face_value = face

    def __repr__(self) -> str:
        tag = " virtual" if self.virtual else ""
        return f"Currency({self.name!r}, face={self.face_value:g}, owner={self.owner!r}{tag})"
