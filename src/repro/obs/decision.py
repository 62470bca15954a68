"""The allocation flight recorder: one auditable record per decision.

Market-style resource sharing lives or dies on participants being able
to audit why an allocation came out the way it did.  Metrics aggregate
that evidence away and traces are sampled; the flight recorder keeps the
last N grant/deny decisions *whole* — requestor, size, donor split, the
perturbation ``theta`` the LP settled on, LP backend/status/iterations,
the bank version the topology was built from, and capacities before and
after — in a bounded ring buffer that is always on while observability
is enabled.

Layering: the GRM (or a direct policy) opens a :class:`DecisionBuilder`
around the allocation; deeper layers that know facts the opener cannot
see (the LP solver's iteration count) attach them to the *active*
decision via :func:`current_decision`
without any handle being threaded through the call chain.  On close the
record lands in the observer's :class:`FlightRecorder` and — when the
surrounding trace is sampled — as a ``{"kind": "decision"}`` JSONL line,
which is what ``scripts/obs_trace.py explain`` queries offline.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass, field, fields

__all__ = [
    "DecisionRecord",
    "DecisionBuilder",
    "FlightRecorder",
    "NullDecision",
    "NULL_DECISION",
    "current_decision",
    "next_request_id",
]

# Request ids for decisions made outside the message protocol (direct
# policy calls have no Message.msg_id); negative so they can never
# collide with message ids.
_direct_ids = itertools.count(1)


def next_request_id() -> int:
    return -next(_direct_ids)


@dataclass
class DecisionRecord:
    """Everything needed to audit one grant or denial after the fact."""

    request_id: int
    requestor: str = ""
    resource_type: str = "general"
    amount: float = 0.0
    #: "granted" | "denied" | "error"
    outcome: str = "unknown"
    granted: float = 0.0
    #: per-donor split ``((principal, quantity), ...)``; sums to ``granted``
    takes: tuple[tuple[str, float], ...] = ()
    #: the minimised perturbation (max capacity drop among non-requestors)
    theta: float = 0.0
    reason: str = ""
    grm: str = ""
    bank_version: int | None = None
    lp_backend: str | None = None
    #: an :class:`~repro.lp.LPStatus` value, e.g. ``"optimal"``
    lp_status: str | None = None
    lp_iterations: int | None = None
    availability_before: dict[str, float] = field(default_factory=dict)
    capacities_before: dict[str, float] = field(default_factory=dict)
    capacities_after: dict[str, float] = field(default_factory=dict)
    trace_id: str | None = None
    span_id: str | None = None
    #: fields recorded by layers this schema does not know about
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "kind": "decision",
            "request_id": self.request_id,
            "requestor": self.requestor,
            "resource_type": self.resource_type,
            "amount": self.amount,
            "outcome": self.outcome,
            "granted": self.granted,
            "takes": [list(t) for t in self.takes],
            "theta": self.theta,
        }
        for name in (
            "reason", "grm", "bank_version", "lp_backend", "lp_status",
            "lp_iterations", "availability_before", "capacities_before",
            "capacities_after", "trace_id", "span_id",
        ):
            value = getattr(self, name)
            if value not in (None, "", {}):
                out[name] = value
        if self.extra:
            out.update(self.extra)
        return out

    @classmethod
    def from_fields(cls, data: dict) -> DecisionRecord:
        """Build a record, routing unknown keys into ``extra``."""
        known = {f.name for f in fields(cls)} - {"extra"}
        core = {k: v for k, v in data.items() if k in known}
        extra = {k: v for k, v in data.items() if k not in known}
        return cls(**core, extra=extra)


_active = threading.local()


def current_decision() -> DecisionBuilder | None:
    """The decision currently being assembled on this thread, if any."""
    return getattr(_active, "builder", None)


class DecisionBuilder:
    """Context manager assembling one :class:`DecisionRecord`.

    While the block is open the builder is the thread's *active* decision
    (:func:`current_decision`), so nested layers can :meth:`set` facts on
    it.  An exception escaping the block marks the outcome ``error``
    rather than losing the record — a crashed allocation is exactly the
    one worth auditing.
    """

    __slots__ = ("_observer", "fields", "_prev")

    def __init__(self, observer, fields: dict):
        self._observer = observer
        self.fields = fields

    def set(self, **fields) -> DecisionBuilder:
        self.fields.update(fields)
        return self

    def __enter__(self) -> DecisionBuilder:
        self._prev = getattr(_active, "builder", None)
        _active.builder = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _active.builder = self._prev
        if exc_type is not None:
            self.fields.setdefault("outcome", "error")
            self.fields.setdefault("reason", f"{exc_type.__name__}: {exc}")
        self._observer._record_decision(self.fields)
        return False


class NullDecision:
    """The disabled-observer counterpart: records nothing."""

    __slots__ = ()

    def set(self, **fields) -> NullDecision:
        return self

    def __enter__(self) -> NullDecision:
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_DECISION = NullDecision()


class FlightRecorder:
    """Bounded ring buffer of the most recent decisions."""

    def __init__(self, capacity: int = 512):
        self.capacity = int(capacity)
        self._buf: deque[DecisionRecord] = deque(maxlen=self.capacity)

    def record(self, record: DecisionRecord) -> None:
        self._buf.append(record)

    def explain(self, request_id: int) -> DecisionRecord | None:
        """The most recent decision for a request id (None if evicted)."""
        for record in reversed(self._buf):
            if record.request_id == request_id:
                return record
        return None

    def records(self) -> list[DecisionRecord]:
        """Oldest-first copy of the buffer."""
        return list(self._buf)

    def __len__(self) -> int:
        return len(self._buf)
