"""Human-readable summaries of metrics and traces.

The report is one view of a registry snapshot: span timings come from
the ``span.<name>`` histograms, decision outcomes from the
``decision.recorded{outcome}`` counter, and every other series is
listed once under its own kind.  Two entry points share it:

- :func:`render_snapshot` — format a live
  :meth:`~repro.obs.registry.MetricsRegistry.snapshot` as aligned tables;
- :func:`summarize_trace` / :func:`render_trace` — replay the last
  ``snapshot`` record of a JSONL trace (see :mod:`repro.obs.events`), so
  the offline report equals the live one whatever the head-sampling
  rate.  This is what ``scripts/obs_trace.py report`` wraps.
"""

from __future__ import annotations

from pathlib import Path

from .events import read_trace
from .trace_tools import build_trees

__all__ = ["render_snapshot", "summarize_trace", "render_trace"]

_SPAN_PREFIX = "span."
_DECISIONS = "decision.recorded"


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _table(rows: list[tuple], headers: tuple) -> str:
    rows = [tuple(str(c) for c in r) for r in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(tuple("-" * w for w in widths))]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def _split(snapshot: dict) -> dict:
    """Separate span timings and decision outcomes from the other series.

    Returns ``{"spans": {name: histogram summary}, "decisions": {outcome:
    count}, "counters": ..., "gauges": ..., "histograms": ...}`` with the
    ``span.*`` histograms and the decision counter appearing only under
    their own key.
    """
    counters = dict(snapshot.get("counters", {}))
    histograms = dict(snapshot.get("histograms", {}))
    decisions = {
        labels.removeprefix("outcome="): int(value)
        for labels, value in counters.pop(_DECISIONS, {}).items()
    }
    spans = {
        name.removeprefix(_SPAN_PREFIX): histograms.pop(name)[""]
        for name in list(histograms)
        if name.startswith(_SPAN_PREFIX)
    }
    return {
        "spans": spans,
        "decisions": decisions,
        "counters": counters,
        "gauges": dict(snapshot.get("gauges", {})),
        "histograms": histograms,
    }


def render_snapshot(snapshot: dict) -> str:
    """Format a metrics snapshot as span, decision, counter, gauge and
    histogram tables."""
    view = _split(snapshot)
    parts = []
    if view["spans"]:
        rows = [
            (name, h["count"], f"{h['sum']:.6g}", f"{h['mean']:.6g}", f"{h['max']:.6g}")
            for name, h in sorted(view["spans"].items(), key=lambda kv: -kv[1]["sum"])
        ]
        parts.append(
            "== spans (seconds) ==\n"
            + _table(rows, ("name", "count", "total", "mean", "max"))
        )
    if view["decisions"]:
        parts.append(
            "== decisions ==\n"
            + _table(sorted(view["decisions"].items()), ("outcome", "count"))
            + "\n(details: repro.obs.explain(request_id) live, "
            "scripts/obs_trace.py explain <request_id> TRACE offline)"
        )
    for kind in ("counters", "gauges"):
        if view[kind]:
            rows = [
                (name, labels or "-", _fmt(value))
                for name, series in view[kind].items()
                for labels, value in sorted(series.items())
            ]
            parts.append(f"== {kind} ==\n" + _table(rows, ("name", "labels", "value")))
    if view["histograms"]:
        rows = [
            (
                name,
                labels or "-",
                _fmt(h["count"]),
                f"{h['mean']:.6g}",
                f"{h['min']:.6g}",
                f"{h['max']:.6g}",
                f"{h['sum']:.6g}",
            )
            for name, series in view["histograms"].items()
            for labels, h in sorted(series.items())
        ]
        parts.append(
            "== histograms ==\n"
            + _table(rows, ("name", "labels", "count", "mean", "min", "max", "sum"))
        )
    return "\n\n".join(parts) if parts else "(no metrics recorded)"


def _last_snapshot(records: list[dict]) -> dict:
    """The last ``snapshot`` record (empty if the run never flushed)."""
    for record in reversed(records):
        if record.get("kind") == "snapshot":
            return record
    return {}


def summarize_trace(records: list[dict]) -> dict:
    """The report of a trace as plain data.

    Returns :func:`_split` of the trace's last snapshot plus ``"traces"``,
    the number of distinct traces whose span lines were written (sampled
    in).
    """
    return {**_split(_last_snapshot(records)), "traces": len(build_trees(records))}


def render_trace(path: str | Path) -> str:
    """Replay a JSONL trace file into the report :func:`render_snapshot`
    prints for the live registry."""
    records = read_trace(path)
    return (
        f"trace: {path}\ndistinct traces written: {len(build_trees(records))}\n\n"
        + render_snapshot(_last_snapshot(records))
    )
