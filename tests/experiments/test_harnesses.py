"""Smoke tests for the experiment harnesses.

These run each figure's harness on a drastically reduced workload
(scale 250 ≈ 2k requests/proxy/day) purely to validate plumbing: row
schemas, series shapes, table rendering, CLI.  Figure-shape assertions
live in benchmarks/ where the full-scale runs happen.
"""

import numpy as np
import pytest

from repro.experiments import fig05, fig06, fig07, fig08, fig09_11, fig12, fig13
from repro.experiments.common import ExperimentResult
from repro.experiments.runner import EXPERIMENTS, main
from repro.proxysim import SimulationConfig

FAST = dict(scale=250.0)


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


class TestFig05:
    def test_schema(self):
        res = fig05.run(**FAST)
        assert res.experiment == "fig05"
        assert {r["metric"] for r in res.rows} >= {
            "peak_mean_wait_s", "trough_mean_wait_s", "peak_requests_per_slot"
        }
        assert res.series["mean_wait"].shape == (144,)
        assert res.series["requests_per_slot"].sum() > 0


class TestFig06:
    def test_schema(self):
        res = fig06.run(gaps=(0.0, 3600.0), **FAST)
        labels = [r["gap_s"] for r in res.rows]
        assert "none (no sharing)" in labels
        assert 3600.0 in labels
        assert "wait:gap=3600" in res.series

    def test_no_baseline_option(self):
        res = fig06.run(gaps=(3600.0,), include_baseline=False, **FAST)
        assert len(res.rows) == 1


class TestFig07:
    def test_schema(self):
        res = fig07.run(factors=(1.0, 1.5), **FAST)
        configs = [r["config"] for r in res.rows]
        assert configs.count("no sharing") == 2
        assert "crossover" in res.notes.lower()


class TestFig08:
    def test_schema(self):
        res = fig08.run(levels=(1, 9), seeds=(0,), **FAST)
        levels = [r["level"] for r in res.rows]
        assert levels == ["none", 1, 9]


class TestFig09_11:
    def test_schema(self):
        res = fig09_11.run(skips=(1,), levels=(1, 3), seeds=(0,), **FAST)
        assert [r["level"] for r in res.rows] == [1, 3]
        assert all(r["figure"] == "fig09" for r in res.rows)

    def test_figure_labels(self):
        res = fig09_11.run(skips=(3, 7), levels=(1,), seeds=(0,), **FAST)
        assert [r["figure"] for r in res.rows] == ["fig10", "fig11"]


class TestFig12:
    def test_schema(self):
        res = fig12.run(cost_multipliers=(0.0, 2.0), **FAST)
        assert [r["cost_multiplier"] for r in res.rows] == [0.0, 2.0]
        for row in res.rows:
            assert 0.0 <= row["redirected_frac"] <= 1.0


class TestFig13:
    def test_schema(self):
        res = fig13.run(**FAST)
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
