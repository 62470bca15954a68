"""Smoke tests for the experiment harnesses.

These read each figure's results from the session's one run of every
harness test's grid (``conftest.py``, scale 250 ≈ 2k requests/proxy/day)
purely to validate plumbing: row schemas, series shapes, table
rendering, the markdown generator, CLI.  Figure-shape assertions live in
benchmarks/ where the full-scale runs happen.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import fig07
from repro.experiments.common import ExperimentResult
from repro.experiments.runner import EXPERIMENTS, main
from repro.proxysim import SimulationConfig

GENERATOR = Path(__file__).resolve().parents[2] / "scripts" / "generate_experiments_md.py"


class TestCommon:
    def test_scaled_config_scales(self):
        cfg = SimulationConfig.scaled(250.0)
        assert cfg.requests_per_day == pytest.approx(500_000 / 250 * 0.95)
        assert cfg.service.a == pytest.approx(0.1 * 250)

    def test_table_rendering(self):
        res = ExperimentResult(
            "x", "demo", rows=[{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
        )
        table = res.table()
        assert "a" in table and "10" in table and "0.125" in table
        assert res.render().startswith("== x: demo ==")

    def test_empty_table(self):
        assert ExperimentResult("x", "d").table() == "(no rows)"

    def test_row_by(self):
        res = ExperimentResult("x", "d", rows=[{"k": 1}, {"k": 2}])
        assert res.row_by(k=2) == {"k": 2}
        with pytest.raises(KeyError):
            res.row_by(k=3)


class TestRunFigures:
    def test_each_distinct_day_runs_once(self, figures):
        # Run one figure at a time, these grids call the simulator 18
        # times for 13 distinct days: fig05's no-sharing day is also
        # fig06's, fig07's and fig08's baseline, and fig06's gap-3600 LP
        # day is fig07's sharing day and fig12's cost-0 day.
        assert figures.days_simulated == 13

    def test_shared_days_do_not_alias(self, figures):
        waits = figures.results["fig05"].series["mean_wait"]
        baseline = figures.results["fig06"].series["wait:no-sharing"]
        saved = waits.copy()
        np.testing.assert_array_equal(baseline, saved)  # one simulated day
        try:
            waits += 1.0
            np.testing.assert_array_equal(baseline, saved)
        finally:
            waits[:] = saved


class TestGenerator:
    def test_renders_every_figure_and_row(self, figures):
        spec = importlib.util.spec_from_file_location("generate_experiments_md", GENERATOR)
        generator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(generator)
        results = list(figures.results.values())
        sections = generator.render(results, scale=250.0, minutes=0.0).split("\n## ")[1:]
        assert len(sections) == len(results)
        for result, section in zip(results, sections):
            assert section.startswith(f"{result.experiment} — {result.description}")
            assert result.notes in section
            lines = section.splitlines()
            for row in result.rows:
                cells = [f"{v:.8g}" if isinstance(v, float) else str(v) for v in row.values()]
                assert any(all(c in line for c in cells) for line in lines), row


class TestFig05:
    def test_schema(self, figures):
        res = figures.results["fig05"]
        assert res.experiment == "fig05"
        assert {r["metric"] for r in res.rows} >= {
            "peak_mean_wait_s", "trough_mean_wait_s", "peak_requests_per_slot"
        }
        assert res.series["mean_wait"].shape == (144,)
        assert res.series["requests_per_slot"].sum() > 0


class TestFig06:
    def test_schema(self, figures):
        res = figures.results["fig06"]
        labels = [r["gap_s"] for r in res.rows]
        assert "none (no sharing)" in labels
        assert 3600.0 in labels
        assert "wait:gap=3600" in res.series


class TestFig07:
    def test_schema(self, figures):
        res = figures.results["fig07"]
        configs = [r["config"] for r in res.rows]
        assert configs.count("no sharing") == 2
        assert "crossover" in res.notes.lower()

    @staticmethod
    def rows(sharing_wait, *swept):
        rows = [{"config": "sharing", "capacity": 1.0, "worst_slot_wait_s": sharing_wait}]
        for capacity, wait in swept:
            rows.append({"config": "no sharing", "capacity": capacity, "worst_slot_wait_s": wait})
        return rows

    def test_notes_name_the_crossover(self):
        notes = fig07.FIGURE.notes(self.rows(10.0, (1.0, 50.0), (1.1, 9.0), (1.2, 5.0)))
        assert notes.endswith("Measured crossover capacity factor: 1.1")

    def test_notes_without_crossover_name_largest_factor_swept(self):
        notes = fig07.FIGURE.notes(self.rows(10.0, (1.0, 50.0), (1.1, 20.0)))
        assert notes.endswith("Measured crossover capacity factor: >1.1")
        notes = fig07.FIGURE.notes(self.rows(1.0, (1.0, 50.0), (1.5, 20.0), (1.25, 30.0)))
        assert notes.endswith("Measured crossover capacity factor: >1.5")


class TestFig08:
    def test_schema(self, figures):
        res = figures.results["fig08"]
        levels = [r["level"] for r in res.rows]
        assert levels == ["none", 1, 9]


class TestFig09_11:
    def test_schema(self, figures):
        res = figures.results["fig09"]
        assert [r["level"] for r in res.rows] == [1, 3]
        assert all(r["figure"] == "fig09" for r in res.rows)

    def test_figure_labels(self, figures):
        res = figures.results["fig10_11"]
        assert [r["figure"] for r in res.rows] == ["fig10", "fig11"]


class TestFig12:
    def test_schema(self, figures):
        res = figures.results["fig12"]
        assert [r["cost_multiplier"] for r in res.rows] == [0.0, 2.0]
        for row in res.rows:
            assert 0.0 <= row["redirected_frac"] <= 1.0


class TestFig13:
    def test_schema(self, figures):
        res = figures.results["fig13"]
        assert {r["scheme"] for r in res.rows} == {"lp", "endpoint"}
        assert "wait:lp" in res.series
        assert "Measured peak reduction" in res.notes


class TestRunnerCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["figZZ"])

    def test_run_one(self, capsys):
        assert main(["fig05", "--scale", "250"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out and "peak_mean_wait_s" in out
