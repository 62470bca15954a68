"""Hierarchical timing spans, linked into traces by the span stack.

A span measures one timed operation (an LP solve, an allocation request,
a whole simulation run).  Spans nest: entering a span while another is
open records the parent, so the exported trace carries the full path
(``proxysim.run/allocation.request/lp.solve``) and the report can show
self-time-style breakdowns.

Every span also carries trace ids taken from the tracer's per-thread
span stack alone.  A span opened with no span open (or through
:meth:`Tracer.root_span`) is a *root*: it mints a new ``trace_id`` and
takes the head-based sampling decision (:func:`sampled_in`).  Any other
span copies the trace id and sampled flag of the span on top of the
stack and records that span's id as its ``parent_id``.  Every transport
endpoint is a synchronous handler and simulation ticks fire inside the
caller's ``Engine.run``, so the stack already links each span to its
cause.  The exported JSONL line records ``trace``/``span``/``parent``
ids, which is what lets ``scripts/obs_trace.py`` reassemble one
request's spans into a single causal tree.

Use as a context manager::

    with tracer.span("flow.coefficients", n=10) as sp:
        ...
        sp.set(states=12)

The module only measures; recording is delegated to the ``on_close``
callback the owning :class:`~repro.obs.Observer` installs.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
import zlib
from collections.abc import Callable

__all__ = ["Span", "Tracer", "sampled_in"]

_span_ids = itertools.count(1)


def sampled_in(trace_id: str, rate: float) -> bool:
    """Deterministic head-based sampling decision for a trace id.

    ``rate`` is the sampled-in fraction in ``[0, 1]``.  The decision is a
    pure function of the id (a threshold on its hash), so a trace kept at
    one rate is kept at every higher rate.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    return zlib.crc32(trace_id.encode("ascii", "replace")) / 0x100000000 < rate


class Span:
    """One timed operation; created by :meth:`Tracer.span`."""

    __slots__ = (
        "tracer", "name", "attrs", "path", "start", "duration", "root",
        "trace_id", "span_id", "parent_id", "sampled",
    )

    def __init__(self, tracer: Tracer, name: str, attrs: dict, root: bool = False):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.path = name  # finalised on __enter__ from the active stack
        self.start = 0.0
        self.duration = 0.0
        self.root = root
        # trace ids, assigned on __enter__
        self.trace_id = ""
        self.span_id = ""
        self.parent_id: str | None = None
        self.sampled = True

    def set(self, **attrs) -> Span:
        """Attach attributes after creation (e.g. results known at the end)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> Span:
        stack = self.tracer._stack()
        self.span_id = f"{next(_span_ids):x}"
        if stack:
            self.path = f"{stack[-1].path}/{self.name}"
        if stack and not self.root:
            top = stack[-1]
            self.trace_id = top.trace_id
            self.parent_id = top.span_id
            self.sampled = top.sampled
        else:
            # A fresh trace: the sampling decision is taken here, at the
            # head, and inherited by everything underneath.
            self.trace_id = uuid.uuid4().hex[:16]
            self.sampled = sampled_in(self.trace_id, self.tracer.sample_rate)
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
    span starts a new trace; child spans keep the decision made at their
    root.
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

    @property
    def depth(self) -> int:
        return len(self._stack())
