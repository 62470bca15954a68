"""Reconstruct per-request span trees from a JSONL trace.

Every span line carries ``trace``/``span``/``parent`` ids (see
:mod:`repro.obs.tracing`).  This module is the offline half of that
design, working on the records :func:`repro.obs.events.read_trace`
returns:

- :func:`build_trees` — group span records by trace id and link them
  into parent/child trees (a span whose parent is not in the trace
  becomes a root, so torn or partial traces still render);
- :func:`breakdown` — per-request critical-path latency attribution:
  because delivery is synchronous, a request's end-to-end latency is its
  root span's duration, and the interesting question is where it went —
  transport hops, topology cache work, the LP solve, or other work.
  Attribution uses *exclusive* time (a span's duration minus its
  children's), so nothing is double-counted;
- :func:`find_decisions` — query ``{"kind": "decision"}`` flight-recorder
  lines by request id (the offline ``obs.explain``).

``scripts/obs_trace.py`` is the CLI wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "SpanNode",
    "build_trees",
    "breakdown",
    "find_decisions",
    "render_trees",
    "trees_summary",
]

#: span-name prefix -> latency category, first match wins
CATEGORY_PREFIXES: tuple[tuple[str, str], ...] = (
    ("transport.", "transport"),
    ("lp.", "lp"),
    ("topology.", "topology"),
)


def categorize(name: str) -> str:
    for prefix, category in CATEGORY_PREFIXES:
        if name.startswith(prefix):
            return category
    return "other"


@dataclass
class SpanNode:
    """One span record plus its reconstructed children."""

    record: dict
    children: list[SpanNode] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record.get("name", "?")

    @property
    def duration(self) -> float:
        return float(self.record.get("dur", 0.0))

    @property
    def span_id(self) -> str | None:
        return self.record.get("span")

    @property
    def trace_id(self) -> str | None:
        return self.record.get("trace")

    @property
    def start(self) -> float:
        """Approximate start offset within the trace's clock."""
        return float(self.record.get("ts", 0.0)) - self.duration

    @property
    def self_time(self) -> float:
        """Duration not accounted for by child spans (clamped at 0)."""
        return max(self.duration - sum(c.duration for c in self.children), 0.0)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def build_trees(records: list[dict]) -> dict[str, list[SpanNode]]:
    """Group span records by trace id and link parent/child edges.

    Returns ``{trace_id: [roots...]}``.  Spans with no trace id are
    grouped under ``"(untraced)"`` as flat roots.  A span whose parent id
    is absent from the records (the file was torn, or the parent is still
    open) becomes a root of its trace rather than being dropped.
    """
    by_trace: dict[str, list[SpanNode]] = {}
    for record in records:
        if record.get("kind") != "span":
            continue
        trace_id = record.get("trace") or "(untraced)"
        by_trace.setdefault(trace_id, []).append(SpanNode(record))

    trees: dict[str, list[SpanNode]] = {}
    for trace_id, nodes in by_trace.items():
        by_span = {n.span_id: n for n in nodes if n.span_id is not None}
        roots: list[SpanNode] = []
        for node in nodes:
            parent_id = node.record.get("parent")
            parent = by_span.get(parent_id) if parent_id is not None else None
            if parent is None or parent is node:
                roots.append(node)
            else:
                parent.children.append(node)
        # Spans are emitted at close (children before parents, deeper
        # first); re-sort siblings by their start offset so the rendered
        # tree reads in execution order.
        for node in nodes:
            node.children.sort(key=lambda n: n.start)
        roots.sort(key=lambda n: n.start)
        trees[trace_id] = roots
    return trees


def breakdown(roots: list[SpanNode]) -> dict[str, float]:
    """Exclusive-time totals per latency category over the whole tree.

    The values sum to the roots' total duration: every nanosecond of the
    request is attributed to exactly one category (the innermost span it
    was spent in).
    """
    totals: dict[str, float] = {}
    for root in roots:
        for node in root.walk():
            category = categorize(node.name)
            totals[category] = totals.get(category, 0.0) + node.self_time
    return totals


def find_decisions(records: list[dict], request_id: int | None = None) -> list[dict]:
    """Flight-recorder lines of a trace, optionally by request id."""
    out = []
    for record in records:
        if record.get("kind") != "decision":
            continue
        if request_id is not None and record.get("request_id") != request_id:
            continue
        out.append(record)
    return out


# -- rendering ----------------------------------------------------------------


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _render_node(node: SpanNode, indent: int, lines: list[str]) -> None:
    attrs = node.record.get("attrs") or {}
    attr_text = ""
    if attrs:
        parts = [f"{k}={v}" for k, v in list(attrs.items())[:4]]
        attr_text = "  {" + ", ".join(parts) + "}"
    lines.append(
        f"{'  ' * indent}{node.name:<{max(40 - 2 * indent, 8)}} "
        f"{_fmt_seconds(node.duration):>10}{attr_text}"
    )
    for child in node.children:
        _render_node(child, indent + 1, lines)


def _breakdown_line(roots: list[SpanNode]) -> str:
    totals = breakdown(roots)
    total = sum(totals.values()) or 1.0
    parts = [
        f"{category} {_fmt_seconds(seconds)} ({100 * seconds / total:.0f}%)"
        for category, seconds in sorted(totals.items(), key=lambda kv: -kv[1])
    ]
    return "breakdown: " + ", ".join(parts)


def render_trees(
    trees: dict[str, list[SpanNode]], trace_id: str | None = None
) -> str:
    """Human-readable span trees plus per-trace latency breakdowns."""
    selected = (
        {trace_id: trees[trace_id]} if trace_id is not None and trace_id in trees
        else trees if trace_id is None
        else {}
    )
    if not selected:
        target = f"trace {trace_id!r}" if trace_id else "any trace"
        return f"(no spans found for {target})"
    lines: list[str] = []
    for tid, roots in sorted(
        selected.items(), key=lambda kv: min((r.start for r in kv[1]), default=0.0)
    ):
        total = sum(r.duration for r in roots)
        root_names = ", ".join(r.name for r in roots[:3])
        lines.append(
            f"trace {tid}  root: {root_names}  "
            f"spans: {sum(1 for r in roots for _ in r.walk())}  "
            f"total: {_fmt_seconds(total)}"
        )
        for root in roots:
            _render_node(root, 1, lines)
        lines.append("  " + _breakdown_line(roots))
        lines.append("")
    lines.append(f"{len(selected)} trace(s)")
    return "\n".join(lines)


def trees_summary(trees: dict[str, list[SpanNode]]) -> dict:
    """JSON-friendly per-trace summary (for ``obs_trace.py --json``)."""

    def node_dict(node: SpanNode) -> dict:
        return {
            "name": node.name,
            "span": node.span_id,
            "dur": node.duration,
            "attrs": node.record.get("attrs") or {},
            "children": [node_dict(c) for c in node.children],
        }

    out = {}
    for trace_id, roots in trees.items():
        out[trace_id] = {
            "roots": [node_dict(r) for r in roots],
            "span_count": sum(1 for r in roots for _ in r.walk()),
            "total_seconds": sum(r.duration for r in roots),
            "breakdown_seconds": breakdown(roots),
        }
    return out
