"""repro.obs — structured tracing, metrics, and profiling hooks.

The library's hot paths (LP solves, coefficient DPs, GRM/LRM message
round-trips, whole simulation runs, whose ``proxysim.run`` span carries
the clock's tick count) are instrumented against a process-global
*observer*.  By default that observer is the zero-overhead
:class:`~repro.obs.null.NullObserver`, so nothing is measured and
benchmark numbers are unchanged.  Switch it on with::

    import repro.obs as obs
    obs.enable(trace_path="run.jsonl")   # or obs.enable() for metrics only
    ... run workload ...
    print(obs.report())                  # live metrics tables
    obs.disable()                        # flushes + closes the trace

or from the environment, with no code changes::

    REPRO_OBS=1 python examples/quickstart.py
    REPRO_OBS=1 REPRO_OBS_TRACE=run.jsonl python examples/tracing_demo.py
    REPRO_OBS=1 REPRO_OBS_TRACE=run.jsonl REPRO_OBS_SAMPLE=0.01 ...

A written trace's last snapshot is replayed into the same tables as
:func:`report` by ``scripts/obs_trace.py report`` (or
:func:`repro.obs.report.render_trace`), and per-request span trees are
reconstructed by ``scripts/obs_trace.py``.

Instrumented call sites follow one pattern::

    from ..obs import get_observer
    ...
    obs = get_observer()
    with obs.span("flow.coefficients", n=n, hop_depth=m) as sp:
        ...
    obs.histogram("flow.hop_depth", m)

Each fact has one record.  A span times an operation and carries its
attributes (and the ``error`` of an exception that escapes it); every
span also feeds a duration histogram named ``span.<name>``, so enabling
metrics alone (no trace file) still yields timing breakdowns.  Counters
count what no span counts, histograms summarise values, and decision
records audit grants.  Each span carries trace/span/parent ids taken
from the tracer's span stack (see :mod:`repro.obs.tracing`), with
head-based sampling (``REPRO_OBS_SAMPLE``) deciding per *trace* whether
its span and decision lines are written to the JSONL file; metrics are
always on, and :meth:`Observer.flush` writes them as one ``snapshot``
record, which is what the offline report replays.

Allocation decisions additionally land in a bounded flight recorder
(:mod:`repro.obs.decision`): :func:`explain` answers "why did request N
come out this way?" with the full donor split, theta, LP statistics, and
the capacities before/after.
"""

from __future__ import annotations

import atexit
import os
from pathlib import Path

from .decision import DecisionBuilder, DecisionRecord, FlightRecorder
from .events import EventLog
from .null import NULL_OBSERVER, NullObserver
from .registry import MetricsRegistry
from .report import render_snapshot, render_trace
from .tracing import Span, Tracer

__all__ = [
    "Observer",
    "NullObserver",
    "MetricsRegistry",
    "Tracer",
    "Span",
    "DecisionRecord",
    "FlightRecorder",
    "get_observer",
    "enable",
    "disable",
    "report",
    "explain",
    "render_snapshot",
    "render_trace",
]

#: default flight-recorder capacity (override with REPRO_OBS_DECISIONS)
DEFAULT_DECISION_CAPACITY = 512


class Observer:
    """A live observer: metrics registry + tracer + optional JSONL export.

    All instrumentation funnels through a handful of methods (shared with
    :class:`~repro.obs.null.NullObserver`):

    - :meth:`counter` / :meth:`gauge` / :meth:`histogram` — metrics;
    - :meth:`span` / :meth:`root_span` — timed context managers, recorded
      as both a ``span.<name>`` histogram and (if tracing and the trace
      is sampled in) a JSONL line carrying trace/span/parent ids;
    - :meth:`decision` — opens a flight-recorder entry for one
      allocation decision; :meth:`explain` queries the ring buffer;
    - :meth:`flush` — writes the registry as one ``snapshot`` record.

    ``sample`` is the head-based sampled-in fraction for *new* traces:
    sampled-in traces are recorded fully, everything else stays
    counters-only (the metrics side is unaffected by sampling).
    """

    enabled = True

    def __init__(
        self,
        trace_path: str | Path | None = None,
        sample: float = 1.0,
        decision_capacity: int = DEFAULT_DECISION_CAPACITY,
    ):
        self.registry = MetricsRegistry()
        self.events_log = EventLog(trace_path)
        self.sample_rate = float(sample)
        self.tracer = Tracer(self._on_span_close, sample_rate=self.sample_rate)
        self.decisions = FlightRecorder(decision_capacity)

    # -- metrics ------------------------------------------------------------

    def counter(self, name: str, value: float = 1, **labels) -> None:
        self.registry.counter_inc(name, value, **labels)

    def gauge(self, name: str, value: float, **labels) -> None:
        self.registry.gauge_set(name, value, **labels)

    def histogram(self, name: str, value: float, **labels) -> None:
        self.registry.observe(name, value, **labels)

    # -- tracing ------------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        return self.tracer.span(name, **attrs)

    def root_span(self, name: str, **attrs) -> Span:
        """A span that starts a new, independently-sampled trace."""
        return self.tracer.root_span(name, **attrs)

    def _on_span_close(self, span: Span) -> None:
        self.registry.observe(f"span.{span.name}", span.duration)
        if not span.sampled:
            self.registry.counter_inc("trace.sampled_out_spans")
            return
        record = {
            "kind": "span",
            "name": span.name,
            "path": span.path,
            "dur": round(span.duration, 9),
            "attrs": span.attrs,
            "trace": span.trace_id,
            "span": span.span_id,
        }
        if span.parent_id is not None:
            record["parent"] = span.parent_id
        self.events_log.emit(record)

    # -- decisions ----------------------------------------------------------

    def decision(self, **fields) -> DecisionBuilder:
        """Open a flight-recorder entry; use as a context manager.

        Nested layers attach facts to the in-flight record through
        :func:`repro.obs.decision.current_decision`; on block exit the
        record is ring-buffered (always) and exported to the trace (when
        the surrounding trace is sampled in).
        """
        return DecisionBuilder(self, fields)

    def _record_decision(self, fields: dict) -> None:
        top = self.tracer.current
        if top is not None:
            fields.setdefault("trace_id", top.trace_id)
            fields.setdefault("span_id", top.span_id)
        record = DecisionRecord.from_fields(fields)
        self.decisions.record(record)
        self.registry.counter_inc("decision.recorded", outcome=record.outcome)
        if top is None or top.sampled:
            self.events_log.emit(record.to_dict())

    def explain(self, request_id: int) -> DecisionRecord | None:
        """The most recent decision for a request id (None if evicted)."""
        return self.decisions.explain(request_id)

    # -- lifecycle ----------------------------------------------------------

    def flush(self) -> None:
        """Write the registry into the trace as one ``snapshot`` record
        (a later one supersedes it) and flush."""
        self.events_log.emit({"kind": "snapshot", **self.registry.snapshot()})
        self.events_log.flush()

    def close(self) -> None:
        """Flush the metric snapshot and close the trace; later calls do nothing."""
        if self.events_log.closed:
            return
        self.flush()
        self.events_log.close()

    def report(self) -> str:
        """Render the live metrics as human-readable tables."""
        return render_snapshot(self.registry.snapshot())


# -- the process-global observer -------------------------------------------

_observer: Observer | NullObserver = NULL_OBSERVER


def get_observer() -> Observer | NullObserver:
    """The current process-global observer (the null one when disabled)."""
    return _observer


_atexit_registered = False


def _close_at_exit() -> None:
    if isinstance(_observer, Observer):
        _observer.close()


def enable(
    trace_path: str | Path | None = None,
    sample: float | None = None,
    decision_capacity: int | None = None,
) -> Observer:
    """Switch observability on, replacing any previous observer.

    ``trace_path`` makes every sampled-in span and decision (and, on
    flush, the metric snapshot) stream to a JSONL file; without it,
    metrics and spans aggregate in memory only.  ``sample`` is the
    head-based sampled-in fraction for new traces (default 1.0, or
    ``REPRO_OBS_SAMPLE``); ``decision_capacity`` bounds the allocation
    flight recorder (default 512, or ``REPRO_OBS_DECISIONS``).  A rate
    outside ``[0, 1]`` (or NaN), a negative capacity, or a value that
    does not parse raises :class:`ValueError` naming the argument or
    variable.  Re-enabling
    flushes and closes the previous observer's trace first, so no
    already-recorded data is lost; the new trace file starts fresh.  The
    active trace is flushed and closed on :func:`disable` or, failing
    that, at interpreter exit.
    """
    global _observer, _atexit_registered
    sample = _rate(*_resolve("sample", sample, "REPRO_OBS_SAMPLE", 1.0))
    decision_capacity = _capacity(*_resolve(
        "decision_capacity", decision_capacity,
        "REPRO_OBS_DECISIONS", DEFAULT_DECISION_CAPACITY,
    ))
    if isinstance(_observer, Observer):
        _observer.close()
    _observer = Observer(
        trace_path, sample=sample, decision_capacity=decision_capacity
    )
    if not _atexit_registered:
        atexit.register(_close_at_exit)
        _atexit_registered = True
    return _observer


def disable() -> None:
    """Switch observability off (flushing and closing any open trace)."""
    global _observer
    if isinstance(_observer, Observer):
        _observer.close()
    _observer = NULL_OBSERVER


def report() -> str:
    """Report from the current observer ('(observability disabled)' if off)."""
    if isinstance(_observer, Observer):
        return _observer.report()
    return "(observability disabled)"


def explain(request_id: int) -> DecisionRecord | None:
    """Look up a request's decision in the live flight recorder.

    Returns None when observability is disabled or the record has been
    evicted from the ring buffer (or never existed).
    """
    return _observer.explain(request_id)


def _env_truthy(value: str | None) -> bool:
    """Whether an on/off environment variable is set to on."""
    return value is not None and value.strip().lower() not in ("", "0", "false", "no", "off")


def _resolve(arg: str, value, env: str, default) -> tuple[str, object]:
    """``(name, value)`` of the argument if given, else of the set
    environment variable, else of the default."""
    if value is not None:
        return arg, value
    raw = os.environ.get(env, "").strip()
    return env, raw or default


def _rate(name: str, value) -> float:
    try:
        rate = float(value)
        valid = 0.0 <= rate <= 1.0  # False for NaN
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ValueError(f"{name}={value!r}: expected a sampling rate in [0, 1]")
    return rate


def _capacity(name: str, value) -> int:
    try:
        capacity = int(value)
        valid = capacity >= 0
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise ValueError(f"{name}={value!r}: expected a non-negative integer")
    return capacity


if _env_truthy(os.environ.get("REPRO_OBS")):
    enable(trace_path=os.environ.get("REPRO_OBS_TRACE") or None)
