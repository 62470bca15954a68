"""In-process message transport.

A deliberately simple substitute for the network layer of a deployed
GRM/LRM system: named endpoints, each with a handler, and synchronous
delivery.  Keeping the transport explicit (instead of direct method calls)
preserves the protocol boundary — every GRM/LRM interaction goes through
messages that a real distributed deployment could serialise.

Message accounting lives in the :mod:`repro.obs` registry when
observability is enabled (``transport.sent{endpoint=..., type=...}``).

With observability enabled, each delivery runs inside a
``transport.send`` span, which is also the handler's timing.  Delivery is
synchronous, so the handler's spans open on top of it and join the
sender's trace through the tracer's span stack.  With observability
disabled, ``send`` calls the handler with no span.
"""

from __future__ import annotations

from collections.abc import Callable

from ..errors import ManagerError
from ..obs import get_observer
from .messages import Message

__all__ = ["InProcessTransport"]


class InProcessTransport:
    """Named endpoints with synchronous delivery.

    Every endpoint registers a handler, invoked on delivery; its return
    value (a reply message or ``None``) is what :meth:`send` returns.
    """

    def __init__(self) -> None:
        self._handlers: dict[str, Callable[[Message], Message | None]] = {}

    def register(self, name: str, handler: Callable[[Message], Message | None]) -> None:
        if name in self._handlers:
            raise ManagerError(f"endpoint {name!r} already registered")
        self._handlers[name] = handler

    def endpoints(self) -> list[str]:
        return list(self._handlers)

    def send(self, to: str, message: Message) -> Message | None:
        """Deliver a message; returns the handler's reply, if any."""
        handler = self._handlers.get(to)
        if handler is None:
            known = ", ".join(sorted(self._handlers)) or "<none registered>"
            raise ManagerError(f"unknown endpoint {to!r}; known endpoints: {known}")
        obs = get_observer()
        if obs.enabled:
            return self._send_observed(to, message, handler, obs)
        return handler(message)

    def _send_observed(self, to, message, handler, obs) -> Message | None:
        """The instrumented delivery path: a span around the handler."""
        msg_type = type(message).__name__
        obs.counter("transport.sent", endpoint=to, type=msg_type)
        with obs.span("transport.send", endpoint=to, type=msg_type):
            return handler(message)
