"""Human-readable summaries of metrics and traces.

Two entry points:

- :func:`render_snapshot` — format a live
  :meth:`~repro.obs.registry.MetricsRegistry.snapshot` as aligned tables;
- :func:`summarize_trace` / :func:`render_trace` — replay a JSONL trace
  (see :mod:`repro.obs.events`) into aggregated span timings plus the
  final metric snapshot, independent of any in-process state.  This is
  what ``scripts/obs_trace.py report`` wraps.
"""

from __future__ import annotations

from pathlib import Path

from .events import read_trace

__all__ = ["render_snapshot", "summarize_trace", "render_trace"]


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


def render_snapshot(snapshot: dict) -> str:
    """Format a metrics snapshot as counter/gauge/histogram tables."""
    parts = []
    counters = snapshot.get("counters", {})
    if counters:
        rows = [
            (name, labels or "-", _fmt(value))
            for name, series in counters.items()
            for labels, value in sorted(series.items())
        ]
        parts.append("== counters ==\n" + _table(rows, ("name", "labels", "value")))
    gauges = snapshot.get("gauges", {})
    if gauges:
        rows = [
            (name, labels or "-", _fmt(value))
            for name, series in gauges.items()
            for labels, value in sorted(series.items())
        ]
        parts.append("== gauges ==\n" + _table(rows, ("name", "labels", "value")))
    histograms = snapshot.get("histograms", {})
    if histograms:
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
            for name, series in histograms.items()
            for labels, h in sorted(series.items())
        ]
        parts.append(
            "== histograms ==\n"
            + _table(rows, ("name", "labels", "count", "mean", "min", "max", "sum"))
        )
    return "\n\n".join(parts) if parts else "(no metrics recorded)"


def summarize_trace(records: list[dict]) -> dict:
    """Aggregate raw trace records.

    Returns ``{"spans": {name: {count, total, mean, max}}, "events":
    {event: count}, "decisions": {outcome: count}, "traces": n,
    "counters": ..., "gauges": ..., "histograms": ...}``.  Metric lines
    later in the trace supersede earlier ones (flush writes a full
    snapshot each time).
    """
    spans: dict[str, dict] = {}
    events: dict[str, int] = {}
    decisions: dict[str, int] = {}
    trace_ids: set[str] = set()
    counters: dict[str, dict[str, float]] = {}
    gauges: dict[str, dict[str, float]] = {}
    histograms: dict[str, dict[str, dict]] = {}
    for rec in records:
        kind = rec.get("kind")
        if kind == "span":
            agg = spans.setdefault(
                rec["name"], {"count": 0, "total": 0.0, "max": 0.0}
            )
            agg["count"] += 1
            agg["total"] += rec.get("dur", 0.0)
            agg["max"] = max(agg["max"], rec.get("dur", 0.0))
            if rec.get("trace"):
                trace_ids.add(rec["trace"])
        elif kind == "event":
            name = rec.get("event", "?")
            events[name] = events.get(name, 0) + 1
        elif kind == "decision":
            outcome = rec.get("outcome", "unknown")
            decisions[outcome] = decisions.get(outcome, 0) + 1
        elif kind == "metric":
            target = {"counter": counters, "gauge": gauges, "histogram": histograms}[
                rec["metric"]
            ]
            entry = rec.get("summary") if rec["metric"] == "histogram" else rec.get("value")
            target.setdefault(rec["name"], {})[rec.get("labels", "")] = entry
    for agg in spans.values():
        agg["mean"] = agg["total"] / agg["count"] if agg["count"] else 0.0
    return {
        "spans": spans,
        "events": events,
        "decisions": decisions,
        "traces": len(trace_ids),
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


def render_trace(path: str | Path) -> str:
    """Replay a JSONL trace file into the full human-readable report."""
    summary = summarize_trace(read_trace(path))
    parts = [f"trace: {path}"]
    if summary["spans"]:
        rows = [
            (
                name,
                agg["count"],
                f"{agg['total']:.6g}",
                f"{agg['mean']:.6g}",
                f"{agg['max']:.6g}",
            )
            for name, agg in sorted(
                summary["spans"].items(), key=lambda kv: -kv[1]["total"]
            )
        ]
        parts.append(
            "== spans (seconds) ==\n"
            + _table(rows, ("name", "count", "total", "mean", "max"))
        )
    if summary["events"]:
        rows = sorted(summary["events"].items())
        parts.append("== events ==\n" + _table(rows, ("event", "count")))
    if summary.get("decisions"):
        rows = sorted(summary["decisions"].items())
        parts.append(
            "== decisions ==\n" + _table(rows, ("outcome", "count"))
            + "\n(use scripts/obs_trace.py explain <request_id> for details)"
        )
    if summary.get("traces"):
        parts.append(f"distinct traces: {summary['traces']}")
    parts.append(
        render_snapshot(
            {
                "counters": summary["counters"],
                "gauges": summary["gauges"],
                "histograms": summary["histograms"],
            }
        )
    )
    return "\n\n".join(parts)
