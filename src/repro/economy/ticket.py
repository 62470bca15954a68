"""Ticket objects.

Tickets are "abstract entities that differ in type and value ... possessing
the right ticket type permits access to the resource and the ticket value
determines the resource quantity that can be accessed" (Section 2.2).

A ticket is **absolute** (its value is its face value, e.g. "3 TB of disk")
or **relative** (its value is the issuing currency's value multiplied by the
ticket's share of the currency's face value).  A ticket may be *base
capacity* (no issuer — it represents a raw resource deposited into the
owner's currency, like A-Ticket1 in Figure 1) or *issued* by a currency to
back another currency, which is how agreements are expressed.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

from ..errors import EconomyError

__all__ = ["TicketKind", "Ticket"]

_ticket_counter = itertools.count(1)


class TicketKind(enum.Enum):
    """Whether a ticket's value is a constant or tracks its issuing currency."""

    ABSOLUTE = "absolute"
    RELATIVE = "relative"


@dataclass
class Ticket:
    """A single ticket.

    Attributes
    ----------
    ticket_id:
        Unique id within a :class:`~repro.economy.bank.Bank`.
    kind:
        :attr:`TicketKind.ABSOLUTE` or :attr:`TicketKind.RELATIVE`.
    face_value:
        For absolute tickets, the resource quantity; for relative tickets,
        the number of currency units (the share denominator is the issuing
        currency's face value).
    resource_type:
        The resource this ticket grants access to (e.g. ``"disk"``).
        Relative tickets transfer a fraction of *all* of the issuing
        currency's resources, so their ``resource_type`` is ``"*"``.
    issuer:
        Name of the issuing currency, or ``None`` for base-capacity tickets.
    backing:
        Name of the currency this ticket funds.
    name:
        Optional human-readable label (e.g. ``"R-Ticket4"``).
    revoked:
        Revoked tickets contribute nothing and cannot be re-activated
        ("the grantor ... revokes the resource from the grantee (agreement
        ends)"); the bank drops them and keeps only their ids.
    """

    kind: TicketKind
    face_value: float
    backing: str
    issuer: str | None = None
    resource_type: str = "*"
    name: str = ""
    ticket_id: int = field(default_factory=lambda: next(_ticket_counter))
    revoked: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.face_value):
            raise EconomyError(
                f"ticket {self.name or self.ticket_id} has non-finite face value "
                f"{self.face_value!r}"
            )
        if self.face_value < 0:
            raise EconomyError(
                f"ticket {self.name or self.ticket_id} has negative face value "
                f"{self.face_value!r}"
            )
        if self.kind is TicketKind.RELATIVE and self.issuer is None:
            raise EconomyError("a relative ticket must be issued by a currency")
        if self.kind is TicketKind.ABSOLUTE and self.resource_type == "*":
            raise EconomyError(
                "an absolute ticket must name a concrete resource type "
                "(its value is a quantity of that resource)"
            )

    @property
    def is_base_capacity(self) -> bool:
        """True for tickets that represent raw owned resources (no issuer)."""
        return self.issuer is None

    @property
    def is_agreement(self) -> bool:
        """True for tickets expressing an agreement between two currencies."""
        return self.issuer is not None

    def __repr__(self) -> str:
        label = self.name or f"ticket#{self.ticket_id}"
        src = self.issuer if self.issuer is not None else "<capacity>"
        flags = " REVOKED" if self.revoked else ""
        return (
            f"Ticket({label}: {self.kind.value} {self.face_value:g} "
            f"[{self.resource_type}] {src} -> {self.backing}{flags})"
        )
