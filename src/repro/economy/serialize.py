"""JSON (de)serialisation for banks and agreement systems.

A deployed GRM must persist its agreement registry across restarts and
exchange agreement descriptions with administrators; this module gives
both objects a stable, human-editable JSON form.

- :func:`bank_to_dict` / :func:`bank_from_dict` round-trip a
  :class:`~repro.economy.bank.Bank` including virtual currencies,
  revoked tickets and ticket names;
- :func:`system_to_dict` / :func:`system_from_dict` round-trip a
  :class:`~repro.agreements.topology.CapacityView` (with the topology's
  ``groups``, if any);
- :func:`save_bank` / :func:`load_bank` and
  :func:`save_system` / :func:`load_system` add file I/O.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..agreements.topology import AgreementTopology, CapacityView
from ..errors import EconomyError
from .bank import Bank
from .ticket import TicketKind

__all__ = [
    "bank_to_dict",
    "bank_from_dict",
    "save_bank",
    "load_bank",
    "system_to_dict",
    "system_from_dict",
    "save_system",
    "load_system",
]

_FORMAT = "repro.bank/1"
_SYSTEM_FORMAT = "repro.agreement-system/1"


def bank_to_dict(bank: Bank) -> dict:
    """A JSON-ready description of every currency and ticket."""
    return {
        "format": _FORMAT,
        "currencies": [
            {
                "name": c.name,
                "face_value": c.face_value,
                "owner": c.owner,
                "virtual": c.virtual,
            }
            for c in bank.currencies
        ],
        "tickets": [
            {
                "kind": t.kind.value,
                "face_value": t.face_value,
                "backing": t.backing,
                "issuer": t.issuer,
                "resource_type": t.resource_type,
                "name": t.name,
                "revoked": t.revoked,
            }
            for t in bank.tickets
        ],
    }


def bank_from_dict(data: dict) -> Bank:
    """Rebuild a bank; ticket ids are reassigned but names/state persist."""
    if data.get("format") != _FORMAT:
        raise EconomyError(
            f"not a serialised bank (format {data.get('format')!r})"
        )
    bank = Bank()
    for c in data["currencies"]:
        bank.create_currency(
            c["name"],
            face_value=c["face_value"],
            owner=c.get("owner"),
            virtual=c.get("virtual", False),
        )
    for t in data["tickets"]:
        kind = TicketKind(t["kind"])
        if t.get("issuer") is None:
            ticket = bank.deposit_capacity(
                t["backing"], t["face_value"], t["resource_type"],
                name=t.get("name", ""),
            )
        elif kind is TicketKind.ABSOLUTE:
            ticket = bank.issue_absolute_ticket(
                t["issuer"], t["backing"], t["face_value"],
                t["resource_type"], name=t.get("name", ""),
            )
        else:
            ticket = bank.issue_relative_ticket(
                t["issuer"], t["backing"], t["face_value"],
                name=t.get("name", ""),
            )
        if t.get("revoked"):
            bank.revoke_ticket(ticket.ticket_id)
    return bank


def system_to_dict(system: CapacityView) -> dict:
    groups = system.topology.groups
    return {
        "format": _SYSTEM_FORMAT,
        "principals": list(system.principals),
        "V": system.V.tolist(),
        "S": system.S.tolist(),
        "A": None if system.A is None else system.A.tolist(),
        "allow_overdraft": system.allow_overdraft,
        "groups": None if groups is None else [list(g) for g in groups],
    }


def system_from_dict(data: dict) -> CapacityView:
    if data.get("format") != _SYSTEM_FORMAT:
        raise EconomyError(
            f"not a serialised agreement system (format {data.get('format')!r})"
        )
    topology = AgreementTopology(
        data["principals"],
        np.asarray(data["S"], dtype=float),
        None if data.get("A") is None else np.asarray(data["A"], dtype=float),
        allow_overdraft=data.get("allow_overdraft", False),
        groups=data.get("groups"),
    )
    return topology.view(np.asarray(data["V"], dtype=float))


def save_bank(bank: Bank, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(bank_to_dict(bank), indent=2))
    return path


def load_bank(path: str | Path) -> Bank:
    return bank_from_dict(json.loads(Path(path).read_text()))


def save_system(system: CapacityView, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(system_to_dict(system), indent=2))
    return path


def load_system(path: str | Path) -> CapacityView:
    return system_from_dict(json.loads(Path(path).read_text()))
