#!/usr/bin/env python3
"""Read a repro.obs JSONL trace: span trees, summary tables, decision audits.

The trace/span/parent ids on each span line stitch one allocation's
journey back together.  The default ``tree`` command rebuilds the
per-request trees and attributes each request's latency to transport vs
topology work vs the LP solve vs everything else.  Every command reads one
trace.

Usage::

    PYTHONPATH=src python scripts/obs_trace.py run.jsonl
    PYTHONPATH=src python scripts/obs_trace.py --trace-id 1a2b3c run.jsonl
    PYTHONPATH=src python scripts/obs_trace.py --json run.jsonl
    PYTHONPATH=src python scripts/obs_trace.py report run.jsonl
    PYTHONPATH=src python scripts/obs_trace.py report --json run.jsonl
    PYTHONPATH=src python scripts/obs_trace.py explain 17 run.jsonl

``report TRACE`` replays the trace's last metric snapshot into the
tables the live ``repro.obs.report()`` prints: span timings, decision
outcomes, counters, gauges and histograms, each number once, whatever
the sampling rate (``--json`` emits the same summary as data, for piping
into other tooling).

``explain REQUEST_ID`` prints the flight-recorder record(s) for one
allocation decision — every key the record carries, the
:class:`~repro.obs.decision.DecisionRecord` fields first in schema order
(requestor, donor split, theta, LP statistics, capacities before/after),
then any extra fields a layer attached (a denial's ``available``) — the
offline counterpart of
``repro.obs.explain``.  Exit status 1 if the request id is not in the
trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

# Allow running from a source checkout without installing the package.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.obs.decision import DecisionRecord  # noqa: E402
from repro.obs.events import read_trace  # noqa: E402
from repro.obs.report import render_trace, summarize_trace  # noqa: E402
from repro.obs.trace_tools import (  # noqa: E402
    build_trees,
    find_decisions,
    render_trees,
    trees_summary,
)


def _cmd_tree(args) -> int:
    trees = build_trees(read_trace(args.trace))
    if args.json:
        summary = trees_summary(trees)
        if args.trace_id is not None:
            summary = {k: v for k, v in summary.items() if k == args.trace_id}
        print(json.dumps(summary, indent=2))
    else:
        print(render_trees(trees, trace_id=args.trace_id))
    return 0


def _cmd_report(args) -> int:
    if args.json:
        print(json.dumps(summarize_trace(read_trace(args.trace)), indent=2))
    else:
        print(render_trace(args.trace))
    return 0


#: record keys in schema order; the extras a layer attaches follow them
_FIELDS = [f.name for f in fields(DecisionRecord) if f.name != "extra"]
#: keys the header line shows (``kind`` only tags the trace line)
_HEADER = ("kind", "request_id", "outcome")
_CAPACITY_MAPS = ("availability_before", "capacities_before", "capacities_after")


def _cmd_explain(args) -> int:
    decisions = find_decisions(read_trace(args.trace), request_id=args.request_id)
    if not decisions:
        print(
            f"no decision record for request {args.request_id} in {args.trace}",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(decisions, indent=2))
        return 0
    for dec in decisions:
        print(f"request {dec.get('request_id')}: {dec.get('outcome', '?')}")
        keys = [k for k in _FIELDS if k in dec] + [k for k in dec if k not in _FIELDS]
        for key in (k for k in keys if k not in _HEADER):
            value = dec[key]
            if key == "takes":
                if value:
                    print("  donor split:")
                for principal, quantity in value:
                    print(f"    {principal}: {quantity:g}")
            elif key in _CAPACITY_MAPS:
                cells = ", ".join(f"{p}={v:g}" for p, v in value.items())
                print(f"  {key}: {cells}")
            else:
                print(f"  {key}: {value}")
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Default subcommand: a bare trace file means "tree".
    if argv and argv[0] not in ("tree", "report", "explain", "-h", "--help"):
        argv.insert(0, "tree")

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_tree = sub.add_parser("tree", help="print per-request span trees")
    p_tree.add_argument("trace", help="JSONL trace written by repro.obs")
    p_tree.add_argument("--trace-id", help="only show this trace")
    p_tree.add_argument("--json", action="store_true", help="machine-readable output")
    p_tree.set_defaults(fn=_cmd_tree)

    p_report = sub.add_parser(
        "report", help="replay one trace's metric snapshot into summary tables"
    )
    p_report.add_argument("trace", help="JSONL trace written by repro.obs")
    p_report.add_argument(
        "--json", action="store_true", help="emit the aggregated summary as JSON"
    )
    p_report.set_defaults(fn=_cmd_report)

    p_explain = sub.add_parser(
        "explain", help="print the decision record(s) for a request id"
    )
    p_explain.add_argument("request_id", type=int, help="request (message) id")
    p_explain.add_argument("trace", help="JSONL trace written by repro.obs")
    p_explain.add_argument("--json", action="store_true", help="machine-readable output")
    p_explain.set_defaults(fn=_cmd_explain)

    args = parser.parse_args(argv)
    if not Path(args.trace).exists():
        parser.error(f"trace file not found: {args.trace}")
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. piped into `head`
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
