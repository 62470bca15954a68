"""Offline span-tree reconstruction and the obs_trace CLI."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.events import read_trace
from repro.obs.trace_tools import (
    breakdown,
    build_trees,
    categorize,
    find_decisions,
    render_trees,
    trees_summary,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
CLI = str(REPO_ROOT / "scripts" / "obs_trace.py")


def _span(name, trace, span, parent=None, dur=0.1, ts=1.0, **attrs):
    rec = {"kind": "span", "name": name, "path": name, "dur": dur,
           "attrs": attrs, "trace": trace, "span": span, "ts": ts}
    if parent is not None:
        rec["parent"] = parent
    return rec


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def _trace(tmp_path):
    """One request's trace: manager.plan -> transport.send ->
    grm.allocate -> lp.solve, written in close order (children first),
    plus its decision record."""
    path = tmp_path / "run.jsonl"
    _write_jsonl(path, [
        _span("lp.solve", "t1", "4", parent="3", dur=0.2, ts=1.4),
        {"kind": "decision", "request_id": 17, "requestor": "p0",
         "outcome": "granted", "granted": 5.0,
         "takes": [["p3", 2.5], ["p7", 2.5]], "theta": 0.1, "ts": 1.5},
        _span("grm.allocate", "t1", "3", parent="2", dur=0.4, ts=1.5),
        _span("transport.send", "t1", "2", parent="1", dur=0.5, ts=1.6),
        _span("manager.plan", "t1", "1", dur=1.0, ts=2.0),
    ])
    return path


class TestBuildTrees:
    def test_spans_link_into_one_tree(self, tmp_path):
        trees = build_trees(read_trace(_trace(tmp_path)))
        assert list(trees) == ["t1"]
        (root,) = trees["t1"]
        assert root.name == "manager.plan"
        names = [n.name for n in root.walk()]
        assert names == ["manager.plan", "transport.send", "grm.allocate",
                         "lp.solve"]

    def test_orphaned_parent_becomes_root(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        _write_jsonl(path, [
            _span("grm.allocate", "t2", "x-1", parent="lost-id", dur=0.3),
            _span("lp.solve", "t2", "x-2", parent="x-1", dur=0.1),
        ])
        trees = build_trees(read_trace(path))
        (root,) = trees["t2"]
        assert root.name == "grm.allocate"
        assert [c.name for c in root.children] == ["lp.solve"]

    def test_untraced_spans_grouped_flat(self, tmp_path):
        path = tmp_path / "old.jsonl"
        _write_jsonl(path, [
            {"kind": "span", "name": "legacy", "dur": 0.1, "attrs": {}, "ts": 1.0}
        ])
        trees = build_trees(read_trace(path))
        assert [r.name for r in trees["(untraced)"]] == ["legacy"]


class TestBreakdown:
    def test_exclusive_time_sums_to_root(self, tmp_path):
        trees = build_trees(read_trace(_trace(tmp_path)))
        parts = breakdown(trees["t1"])
        # manager.plan 1.0 - transport 0.5 = 0.5 other;
        # transport 0.5 - grm 0.4 = 0.1 transport;
        # grm 0.4 - lp 0.2 = 0.2 other; lp = 0.2.
        assert parts["lp"] == pytest.approx(0.2)
        assert parts["transport"] == pytest.approx(0.1)
        assert parts["other"] == pytest.approx(0.7)
        assert sum(parts.values()) == pytest.approx(1.0)  # the root's duration

    def test_categorize_prefixes(self):
        assert categorize("transport.send") == "transport"
        assert categorize("lp.solve") == "lp"
        assert categorize("topology.rebuild") == "topology"
        assert categorize("manager.plan") == "other"


class TestFindDecisions:
    def test_by_request_id(self, tmp_path):
        records = read_trace(_trace(tmp_path))
        assert find_decisions(records, request_id=999) == []
        (dec,) = find_decisions(records, request_id=17)
        assert dec["outcome"] == "granted"
        assert sum(q for _, q in dec["takes"]) == dec["granted"]

    def test_all_decisions(self, tmp_path):
        records = read_trace(_trace(tmp_path))
        assert len(find_decisions(records)) == 1


class TestRendering:
    def test_render_trees_text(self, tmp_path):
        trees = build_trees(read_trace(_trace(tmp_path)))
        text = render_trees(trees)
        assert "manager.plan" in text
        assert "breakdown:" in text
        assert "1 trace(s)" in text

    def test_render_unknown_trace_id(self, tmp_path):
        trees = build_trees(read_trace(_trace(tmp_path)))
        assert "no spans found" in render_trees(trees, trace_id="absent")

    def test_trees_summary_json_friendly(self, tmp_path):
        trees = build_trees(read_trace(_trace(tmp_path)))
        summary = trees_summary(trees)
        json.dumps(summary)  # must serialise
        assert summary["t1"]["span_count"] == 4
        assert summary["t1"]["total_seconds"] == 1.0
        assert summary["t1"]["roots"][0]["name"] == "manager.plan"


class TestCli:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, CLI, *map(str, argv)],
            capture_output=True, text=True, timeout=60,
        )

    def test_tree_default_subcommand(self, tmp_path):
        path = _trace(tmp_path)
        proc = self._run(path)
        assert proc.returncode == 0, proc.stderr
        assert "manager.plan" in proc.stdout
        assert "breakdown:" in proc.stdout

    def test_tree_json(self, tmp_path):
        path = _trace(tmp_path)
        proc = self._run("--json", path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["t1"]["span_count"] == 4

    def test_explain_found(self, tmp_path):
        path = _trace(tmp_path)
        proc = self._run("explain", 17, path)
        assert proc.returncode == 0, proc.stderr
        assert "granted" in proc.stdout
        assert "p3" in proc.stdout

    def test_explain_prints_every_field(self, tmp_path):
        """A denial's quoted ``available``, its ``span_id`` and fields the
        schema does not know all reach the text view, schema fields first."""
        path = tmp_path / "run.jsonl"
        _write_jsonl(path, [
            {"kind": "decision", "request_id": 5, "requestor": "p0",
             "amount": 50.0, "outcome": "denied", "reason": "insufficient",
             "available": 2.0, "multigrid_rounds": 2, "span_id": "9",
             "ts": 1.0},
        ])
        proc = self._run("explain", 5, path)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "request 5: denied"
        for line in ("  available: 2.0", "  multigrid_rounds: 2", "  span_id: 9"):
            assert line in lines
        assert lines.index("  span_id: 9") < lines.index("  available: 2.0")

    def test_explain_json(self, tmp_path):
        path = _trace(tmp_path)
        proc = self._run("explain", 17, "--json", path)
        assert proc.returncode == 0, proc.stderr
        (dec,) = json.loads(proc.stdout)
        assert dec["request_id"] == 17

    def test_explain_missing_request_exits_1(self, tmp_path):
        path = _trace(tmp_path)
        proc = self._run("explain", 999, path)
        assert proc.returncode == 1
        assert "no decision record" in proc.stderr

    def test_tree_renders_torn_file(self, tmp_path):
        """The root's line was cut mid-write: its children still render."""
        path = _trace(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]) + lines[-1][:20])
        proc = self._run(path)
        assert proc.returncode == 0, proc.stderr
        assert "manager.plan" not in proc.stdout
        assert "transport.send" in proc.stdout and "lp.solve" in proc.stdout
        assert "1 trace(s)" in proc.stdout

    def test_missing_file_errors(self, tmp_path):
        proc = self._run(tmp_path / "absent.jsonl")
        assert proc.returncode != 0
