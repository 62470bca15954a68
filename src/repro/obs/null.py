"""The zero-overhead disabled observer.

Every instrumented call site in the library talks to whatever
:func:`repro.obs.get_observer` returns.  When observability is off (the
default) that is the module-level :data:`NULL_OBSERVER` below: every
method is a no-op and :meth:`NullObserver.span` hands back one shared
do-nothing context manager, so instrumentation costs a method call and
nothing else.  Tier-1 tests and benchmark numbers are therefore identical
whether the ``repro.obs`` package exists or not.
"""

from __future__ import annotations

from .decision import NULL_DECISION, NullDecision

__all__ = ["NullObserver", "NullSpan", "NULL_OBSERVER", "NULL_SPAN"]


class NullSpan:
    """A reusable do-nothing span (context manager)."""

    __slots__ = ()

    def __enter__(self) -> NullSpan:
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> NullSpan:
        return self


NULL_SPAN = NullSpan()


class NullObserver:
    """Observer API with every operation stubbed out.

    Mirrors :class:`repro.obs.Observer`; see that class for semantics.
    """

    __slots__ = ()

    enabled = False

    def counter(self, name: str, value: float = 1, **labels) -> None:
        pass

    def gauge(self, name: str, value: float, **labels) -> None:
        pass

    def histogram(self, name: str, value: float, **labels) -> None:
        pass

    def span(self, name: str, **attrs) -> NullSpan:
        return NULL_SPAN

    def root_span(self, name: str, **attrs) -> NullSpan:
        return NULL_SPAN

    def decision(self, **fields) -> NullDecision:
        return NULL_DECISION

    def explain(self, request_id: int) -> None:
        return None

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL_OBSERVER = NullObserver()
