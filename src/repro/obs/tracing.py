"""Hierarchical timing spans with trace-context propagation.

A span measures one timed operation (an LP solve, an allocation request,
a whole simulation run).  Spans nest: entering a span while another is
open records the parent, so the exported trace carries the full path
(``proxysim.run/allocation.request/lp.solve``) and the report can show
self-time-style breakdowns.

Every live span also carries a :class:`~repro.obs.context.TraceContext`:
the innermost open span's context is inherited (same trace, new span id),
an ambient context installed at an async boundary (message delivery, DES
event firing — see :func:`repro.obs.context.use_context`) is adopted
when the local stack is empty, and otherwise the span starts a brand-new
trace whose head-based sampling decision it takes on creation.  The
exported JSONL line records ``trace``/``span``/``parent`` ids, which is
what lets ``scripts/obs_trace.py`` reassemble one request's spans into a
single causal tree across per-node trace files.

Use as a context manager::

    with tracer.span("flow.coefficients", method="dp") as sp:
        ...
        sp.set(states=12)

or as a decorator::

    @traced("flow.coefficients")
    def transitive_coefficients(...): ...

The module only measures; recording is delegated to the ``on_close``
callback the owning :class:`~repro.obs.Observer` installs.
"""

from __future__ import annotations

import functools
import threading
import time
from collections.abc import Callable

from . import context as obs_context
from .context import TraceContext

__all__ = ["Span", "Tracer", "traced"]


class Span:
    """One timed operation; created by :meth:`Tracer.span`."""

    __slots__ = ("tracer", "name", "attrs", "path", "start", "duration", "ctx", "root")

    def __init__(self, tracer: Tracer, name: str, attrs: dict, root: bool = False):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.path = name  # finalised on __enter__ from the active stack
        self.start = 0.0
        self.duration = 0.0
        self.ctx: TraceContext | None = None
        self.root = root

    @property
    def context(self) -> TraceContext | None:
        """The span's trace context (None before ``__enter__``)."""
        return self.ctx

    def set(self, **attrs) -> Span:
        """Attach attributes after creation (e.g. results known at the end)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> Span:
        stack = self.tracer._stack()
        parent_ctx: TraceContext | None = None
        if stack:
            self.path = f"{stack[-1].path}/{self.name}"
            parent_ctx = stack[-1].ctx
        else:
            parent_ctx = obs_context.current()
        if self.root or parent_ctx is None:
            # A fresh trace: the sampling decision is taken here, at the
            # head, and inherited by everything underneath.
            self.ctx = obs_context.new_root(self.tracer.sample_rate)
        else:
            self.ctx = parent_ctx.child()
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.start
        stack = self.tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._on_close(self)
        return False


class Tracer:
    """Span factory holding the per-thread active-span stack.

    ``sample_rate`` is the head-based sampled-in fraction applied when a
    span starts a new trace (it has no parent span and no ambient
    context); inherited contexts keep the decision made at their head.
    """

    def __init__(self, on_close: Callable[[Span], None], sample_rate: float = 1.0):
        self._on_close = on_close
        self.sample_rate = float(sample_rate)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs)

    def root_span(self, name: str, **attrs) -> Span:
        """A span that starts a new trace even while another span is open.

        Used where one long-lived operation (a whole simulation run)
        contains many independently-sampled requests: each consultation
        roots its own trace instead of riding the run's sampling fate.
        """
        return Span(self, name, attrs, root=True)

    @property
    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def current_context(self) -> TraceContext | None:
        """Innermost open span's context, else the ambient context."""
        stack = self._stack()
        if stack:
            return stack[-1].ctx
        return obs_context.current()

    @property
    def depth(self) -> int:
        return len(self._stack())


def traced(name: str | None = None, **attrs):
    """Decorator: run the wrapped function inside an observer span.

    The observer is looked up per call, so enabling/disabling
    observability at runtime affects already-decorated functions.
    """

    def decorate(fn):
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            from . import get_observer

            with get_observer().span(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
