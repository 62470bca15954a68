"""JSONL trace round-trip, report rendering, and the CLI script."""

import json
import subprocess
import sys
from pathlib import Path

from repro.obs.events import read_trace
from repro.obs.report import render_snapshot, render_trace, summarize_trace

REPO_ROOT = Path(__file__).resolve().parents[2]
REPORT_CLI = [sys.executable, str(REPO_ROOT / "scripts" / "obs_trace.py"), "report"]


def _write_workload(observer):
    """Record a tiny but representative mix of spans/counters/events."""
    with observer.span("lp.solve", backend="scipy"):
        pass
    with observer.span("lp.solve", backend="scipy"):
        pass
    observer.counter("transport.sent", 3, endpoint="grm")
    observer.gauge("des.sim_wall_ratio", 120.0)
    observer.histogram("allocation.theta", 2.5)
    observer.event("allocation.infeasible", principal="isp0", amount=4.0)


class TestJsonlRoundTrip:
    def test_every_line_is_json(self, traced_observer):
        observer, path = traced_observer
        _write_workload(observer)
        observer.flush()
        with path.open() as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        kinds = {r["kind"] for r in records}
        assert kinds == {"span", "event", "metric"}
        assert all("ts" in r for r in records)

    def test_read_trace_matches_emits(self, traced_observer):
        observer, path = traced_observer
        _write_workload(observer)
        observer.flush()
        records = read_trace(path)
        spans = [r for r in records if r["kind"] == "span"]
        assert len(spans) == 2
        assert spans[0]["name"] == "lp.solve"
        assert spans[0]["attrs"] == {"backend": "scipy"}

    def test_read_trace_skips_torn_lines(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"kind": "span", "name": "lp.solve", "dur": 0.1, "attrs": {}}\n'
            '{"kind": "event", "event": "des.run"}\n'
            '{"kind": "span", "name": "trunc'  # process killed mid-write
        )
        records = read_trace(path)
        assert [r["kind"] for r in records] == ["span", "event"]

    def test_summarize_trace_aggregates(self, traced_observer):
        observer, path = traced_observer
        _write_workload(observer)
        observer.flush()
        summary = summarize_trace(read_trace(path))
        assert summary["spans"]["lp.solve"]["count"] == 2
        assert summary["events"]["allocation.infeasible"] == 1
        assert summary["counters"]["transport.sent"]["endpoint=grm"] == 3
        assert summary["gauges"]["des.sim_wall_ratio"][""] == 120.0
        assert summary["histograms"]["allocation.theta"][""]["count"] == 1

    def test_later_metric_lines_supersede(self, traced_observer):
        observer, path = traced_observer
        observer.counter("c", 1)
        observer.flush()
        observer.counter("c", 1)
        observer.flush()
        summary = summarize_trace(read_trace(path))
        assert summary["counters"]["c"][""] == 2

    def test_in_memory_event_log(self, observer):
        observer.event("ping", n=1)
        records = observer.events_log.records()
        assert records and records[-1]["event"] == "ping"


class TestRendering:
    def test_render_trace_tables(self, traced_observer):
        observer, path = traced_observer
        _write_workload(observer)
        observer.flush()
        text = render_trace(path)
        assert "== spans (seconds) ==" in text
        assert "lp.solve" in text
        assert "transport.sent" in text
        assert "endpoint=grm" in text

    def test_render_empty_snapshot(self):
        assert "no metrics" in render_snapshot({})


class TestDecisionReporting:
    def _record_decisions(self, observer):
        with observer.decision(request_id=1, requestor="p0") as dec:
            dec.set(outcome="granted", granted=2.0)
        with observer.decision(request_id=2, requestor="p1") as dec:
            dec.set(outcome="denied", reason="no capacity")

    def test_summarize_counts_outcomes(self, traced_observer):
        observer, path = traced_observer
        self._record_decisions(observer)
        observer.flush()
        summary = summarize_trace(read_trace(path))
        assert summary["decisions"] == {"granted": 1, "denied": 1}

    def test_render_trace_shows_decisions_table(self, traced_observer):
        observer, path = traced_observer
        self._record_decisions(observer)
        observer.flush()
        text = render_trace(path)
        assert "== decisions ==" in text
        assert "granted" in text and "denied" in text
        assert "obs_trace.py explain" in text

    def test_distinct_trace_count(self, traced_observer):
        observer, path = traced_observer
        with observer.root_span("req.a"):
            pass
        with observer.root_span("req.b"):
            pass
        observer.flush()
        assert summarize_trace(read_trace(path))["traces"] == 2

    def test_cli_json_includes_decisions(self, traced_observer):
        observer, path = traced_observer
        self._record_decisions(observer)
        observer.flush()
        proc = subprocess.run(
            [*REPORT_CLI, str(path), "--json"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["decisions"] == {"granted": 1, "denied": 1}


class TestReportScript:
    def test_cli_renders_trace(self, traced_observer, tmp_path):
        observer, path = traced_observer
        _write_workload(observer)
        observer.flush()
        proc = subprocess.run(
            [*REPORT_CLI, str(path)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "lp.solve" in proc.stdout
        assert "transport.sent" in proc.stdout

    def test_cli_json_mode(self, traced_observer):
        observer, path = traced_observer
        _write_workload(observer)
        observer.flush()
        proc = subprocess.run(
            [*REPORT_CLI, str(path), "--json"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["spans"]["lp.solve"]["count"] == 2

    def test_cli_missing_file_errors(self, tmp_path):
        proc = subprocess.run(
            [*REPORT_CLI, str(tmp_path / "absent.jsonl")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
