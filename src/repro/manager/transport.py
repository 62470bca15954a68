"""In-process message transport.

A deliberately simple substitute for the network layer of a deployed
GRM/LRM system: named endpoints, FIFO mailboxes, synchronous ``deliver``.
Keeping the transport explicit (instead of direct method calls) preserves
the protocol boundary — every GRM/LRM interaction goes through messages
that a real distributed deployment could serialise.

Message accounting lives in the :mod:`repro.obs` registry when
observability is enabled (``transport.sent{endpoint=..., type=...}`` and
``transport.received{endpoint=...}``), along with a per-endpoint
handler-latency histogram.

With observability enabled, each delivery runs inside a
``transport.send`` span.  Delivery is synchronous, so the handler's spans
open on top of it and join the sender's trace through the tracer's span
stack.  With observability disabled, ``send`` calls the handler (or
queues the message) with no span.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable

from ..errors import ManagerError
from ..obs import get_observer
from .messages import Message

__all__ = ["InProcessTransport"]


class InProcessTransport:
    """Named mailboxes with synchronous delivery and optional handlers.

    Endpoints register either a handler (push: invoked on delivery, may
    return a reply message) or nothing (pull: messages queue in a mailbox
    until :meth:`receive`).
    """

    def __init__(self) -> None:
        self._handlers: dict[str, Callable[[Message], Message | None]] = {}
        self._mailboxes: dict[str, deque[Message]] = {}

    def register(
        self,
        name: str,
        handler: Callable[[Message], Message | None] | None = None,
    ) -> None:
        if name in self._mailboxes:
            raise ManagerError(f"endpoint {name!r} already registered")
        self._mailboxes[name] = deque()
        if handler is not None:
            self._handlers[name] = handler

    def endpoints(self) -> list[str]:
        return list(self._mailboxes)

    def _unknown(self, name: str) -> ManagerError:
        known = ", ".join(sorted(self._mailboxes)) or "<none registered>"
        return ManagerError(f"unknown endpoint {name!r}; known endpoints: {known}")

    def send(self, to: str, message: Message) -> Message | None:
        """Deliver a message; returns the handler's reply, if any."""
        if to not in self._mailboxes:
            raise self._unknown(to)
        obs = get_observer()
        handler = self._handlers.get(to)
        if obs.enabled:
            return self._send_observed(to, message, handler, obs)
        if handler is not None:
            return handler(message)
        self._mailboxes[to].append(message)
        return None

    def _send_observed(self, to, message, handler, obs) -> Message | None:
        """The instrumented delivery path: a span around the handler."""
        msg_type = type(message).__name__
        obs.counter("transport.sent", endpoint=to, type=msg_type)
        with obs.span("transport.send", endpoint=to, type=msg_type):
            if handler is not None:
                start = time.perf_counter()
                try:
                    return handler(message)
                finally:
                    obs.histogram(
                        "transport.handle_seconds",
                        time.perf_counter() - start,
                        endpoint=to,
                    )
            self._mailboxes[to].append(message)
            return None

    def receive(self, name: str) -> Message | None:
        """Pop the oldest queued message for a pull endpoint.

        Spans the consumer opens while handling it belong to whatever
        span is open at that point, not to the sender's trace.
        """
        if name not in self._mailboxes:
            raise self._unknown(name)
        box = self._mailboxes[name]
        if not box:
            return None
        get_observer().counter("transport.received", endpoint=name)
        return box.popleft()

    def pending(self, name: str) -> int:
        if name not in self._mailboxes:
            raise self._unknown(name)
        return len(self._mailboxes[name])
