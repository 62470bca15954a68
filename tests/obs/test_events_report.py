"""JSONL trace round-trip, report rendering, and the CLI script."""

import json
import subprocess
import sys
from pathlib import Path

import repro.obs as obs
from repro.obs.events import read_trace
from repro.obs.report import render_snapshot, render_trace, summarize_trace

REPO_ROOT = Path(__file__).resolve().parents[2]
REPORT_CLI = [sys.executable, str(REPO_ROOT / "scripts" / "obs_trace.py"), "report"]


def _write_workload(observer):
    """Record a tiny but representative mix of spans and metrics."""
    with observer.span("lp.solve", backend="scipy"):
        pass
    with observer.span("lp.solve", backend="scipy"):
        pass
    observer.counter("transport.sent", 3, endpoint="grm")
    observer.gauge("proxysim.mean_wait", 120.0)
    observer.histogram("allocation.theta", 2.5)


class TestJsonlRoundTrip:
    def test_every_line_is_json(self, traced_observer):
        observer, path = traced_observer
        _write_workload(observer)
        observer.flush()
        with path.open() as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        kinds = {r["kind"] for r in records}
        assert kinds == {"span", "snapshot"}
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
            '{"kind": "decision", "request_id": 1, "outcome": "granted"}\n'
            '{"kind": "span", "name": "trunc'  # process killed mid-write
        )
        records = read_trace(path)
        assert [r["kind"] for r in records] == ["span", "decision"]

    def test_summarize_trace_aggregates(self, traced_observer):
        observer, path = traced_observer
        _write_workload(observer)
        observer.flush()
        summary = summarize_trace(read_trace(path))
        assert summary["spans"]["lp.solve"]["count"] == 2
        assert summary["counters"]["transport.sent"]["endpoint=grm"] == 3
        assert summary["gauges"]["proxysim.mean_wait"][""] == 120.0
        # each number once: span timings are not repeated as histograms
        assert list(summary["histograms"]) == ["allocation.theta"]
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
        with observer.span("ping"):
            pass
        records = observer.events_log.records()
        assert records and records[-1]["name"] == "ping"


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

    def test_trace_report_is_the_live_report(self, traced_observer):
        observer, path = traced_observer
        _write_workload(observer)
        observer.flush()
        live = render_snapshot(observer.registry.snapshot())
        assert "== spans (seconds) ==" in live
        assert render_trace(path).endswith("\n\n" + live)


class TestSampledOutReport:
    """Head sampling drops span and decision lines, not the report's numbers."""

    def test_report_matches_live_registry(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        try:
            observer = obs.enable(trace_path=path, sample=0.0)
            for _ in range(3):
                with observer.span("lp.solve", backend="simplex"):
                    pass
            with observer.root_span("request"):
                with observer.decision(request_id=1, requestor="p0") as dec:
                    dec.set(outcome="granted", granted=2.0)
                with observer.decision(request_id=2, requestor="p1") as dec:
                    dec.set(outcome="denied", reason="no capacity")
            observer.histogram("allocation.theta", 2.5)
        finally:
            obs.disable()
        live = observer.registry

        records = read_trace(path)
        assert {r["kind"] for r in records} == {"snapshot"}  # nothing sampled in
        summary = summarize_trace(records)
        assert {name: h["count"] for name, h in summary["spans"].items()} == {
            "lp.solve": live.get_histogram("span.lp.solve").count,
            "request": live.get_histogram("span.request").count,
        }
        assert summary["spans"]["lp.solve"]["count"] == 3
        assert summary["decisions"] == {
            "granted": live.counter_value("decision.recorded", outcome="granted"),
            "denied": live.counter_value("decision.recorded", outcome="denied"),
        } == {"granted": 1, "denied": 1}
        assert summary["traces"] == 0

        text = render_trace(path)
        histogram_table = text.split("== histograms ==\n", 1)[1].splitlines()
        assert any(row.startswith("allocation.theta") for row in histogram_table)
        assert not any(row.startswith("span.") for row in histogram_table)


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
