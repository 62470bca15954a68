"""Baseline round-trips, drift robustness, and the reprolint CLI."""

import json
import textwrap
from pathlib import Path

from repro.lint import Baseline, run_lint
from repro.lint.cli import main

REPO = Path(__file__).resolve().parents[2]

DIRTY = """
    def is_unperturbed(theta):
        return theta == 0.0
"""


def _write(tmp_path, source, name="mod.py"):
    f = tmp_path / name
    f.write_text(textwrap.dedent(source))
    return f


class TestBaseline:
    def test_round_trip_absorbs_findings(self, tmp_path):
        _write(tmp_path, DIRTY)
        findings = run_lint([tmp_path], root=tmp_path)
        assert findings
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(path)
        new, matched, stale = Baseline.load(path).filter(findings)
        assert new == []
        assert len(matched) == len(findings)
        assert stale == []

    def test_baseline_survives_line_drift(self, tmp_path):
        f = _write(tmp_path, DIRTY)
        baseline = Baseline.from_findings(run_lint([tmp_path], root=tmp_path))
        # Shift the offending line down; the fingerprint is line-number-free.
        f.write_text("\n\n# a new header comment\n" + f.read_text())
        new, matched, stale = baseline.filter(run_lint([tmp_path], root=tmp_path))
        assert new == []
        assert len(matched) == 1
        assert stale == []

    def test_stale_entries_surface(self, tmp_path):
        _write(tmp_path, DIRTY)
        baseline = Baseline.from_findings(run_lint([tmp_path], root=tmp_path))
        _write(tmp_path, "def fine():\n    return 1\n")
        new, matched, stale = baseline.filter(run_lint([tmp_path], root=tmp_path))
        assert new == []
        assert matched == []
        assert len(stale) == 1

    def test_new_finding_not_absorbed(self, tmp_path):
        f = _write(tmp_path, DIRTY)
        baseline = Baseline.from_findings(run_lint([tmp_path], root=tmp_path))
        f.write_text(
            f.read_text()
            + "\n\ndef second(capacity):\n    return capacity == 0.0\n"
        )
        new, matched, stale = baseline.filter(run_lint([tmp_path], root=tmp_path))
        assert len(new) == 1
        assert len(matched) == 1


class TestCli:
    def test_findings_exit_1(self, tmp_path, capsys):
        f = _write(tmp_path, DIRTY)
        code = main([str(f), "--root", str(tmp_path), "--no-baseline"])
        out = capsys.readouterr()
        assert code == 1
        assert "R4" in out.out

    def test_clean_exit_0(self, tmp_path):
        f = _write(tmp_path, "def fine():\n    return 1\n")
        assert main([str(f), "--root", str(tmp_path)]) == 0

    def test_write_then_lint_with_baseline(self, tmp_path, capsys):
        f = _write(tmp_path, DIRTY)
        assert main([str(f), "--root", str(tmp_path), "--write-baseline"]) == 0
        assert (tmp_path / "reprolint-baseline.json").exists()
        assert main([str(f), "--root", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "baselined" in err

    def test_json_format(self, tmp_path, capsys):
        f = _write(tmp_path, DIRTY)
        code = main(
            [str(f), "--root", str(tmp_path), "--no-baseline", "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "R4"

    def test_bad_path_exit_2(self, tmp_path):
        assert main([str(tmp_path / "nope.py")]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R3", "R4", "R5"):
            assert rule_id in out
        assert "R1" not in out and "R2" not in out


class TestTreeClean:
    def test_src_tree_has_no_findings(self):
        """Acceptance: the shipped tree is reprolint-clean without baseline."""
        findings = run_lint([REPO / "src"], root=REPO)
        assert findings == [], [f.render() for f in findings]

    def test_committed_baseline_is_empty(self):
        data = json.loads((REPO / "reprolint-baseline.json").read_text())
        assert data["entries"] == []
