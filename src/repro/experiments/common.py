"""Shared plumbing for the experiment harnesses: every figure of the
paper's evaluation is a :class:`Figure`, a sweep over simulated days."""

import csv
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Callable

import numpy as np

from ..proxysim import SimulationConfig, run_simulation

__all__ = ["ExperimentResult", "Figure", "run_figures"]


@dataclass
class ExperimentResult:
    """Rows + series for one reproduced figure.

    ``rows`` is what the figure's summary reduces to (one dict per
    configuration); ``series`` holds per-slot curves keyed by label for
    figures that plot full time series.
    """

    experiment: str
    description: str
    rows: list[dict] = field(default_factory=list)
    series: dict[str, np.ndarray] = field(default_factory=dict)
    notes: str = ""

    def table(self, digits: int = 3) -> str:
        """Render rows as an aligned text table, floats to ``digits`` figures."""
        if not self.rows:
            return "(no rows)"
        cols = list(self.rows[0].keys())
        cells = [cols] + [[_fmt(r.get(c), digits) for c in cols] for r in self.rows]
        widths = [max(len(row[i]) for row in cells) for i in range(len(cols))]
        lines = ["  ".join(v.rjust(w) for v, w in zip(row, widths)) for row in cells]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)

    def render(self) -> str:
        head = f"== {self.experiment}: {self.description} =="
        return "\n".join([head, self.table()] + ([self.notes] if self.notes else []))

    def to_csv(self, directory) -> list:
        """Write rows (and each series) as CSV files; returns paths written.

        ``<experiment>_rows.csv`` holds the summary table; when the result
        carries per-slot series, ``<experiment>_series.csv`` holds them as
        columns aligned on the slot axis — ready for any plotting tool.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        if self.rows:
            path = directory / f"{self.experiment}_rows.csv"
            with path.open("w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(self.rows[0].keys()))
                writer.writeheader()
                writer.writerows(self.rows)
            written.append(path)
        if self.series:
            path = directory / f"{self.experiment}_series.csv"
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(list(self.series.keys()))
                columns = map(np.atleast_1d, self.series.values())
                writer.writerows(zip_longest(*columns, fillvalue=""))
            written.append(path)
        return written

    def row_by(self, **match) -> dict:
        """First row whose items all match (for assertions in benches)."""
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row
        raise KeyError(f"no row matching {match}")


def _fmt(v, digits: int) -> str:
    return f"{v:.{digits}g}" if isinstance(v, float) else str(v)


@dataclass(frozen=True)
class Figure:
    """A paper figure as data: the days it simulates and what it reports.

    ``grid(scale, **axes)`` lists ``(label, overrides)`` points in row
    order: a row's leading columns and one day's ``SimulationConfig.scaled``
    overrides (the default ``gap``, 3600 s, is Figures 5 and 7-13's).  A
    day runs over ``structure(label)``, or without agreements if its scheme
    is "none".  A row holds, per column of ``stats``, the
    mean over seeds of ``stat(day, label)``.  ``series(rows, days)`` and
    ``notes`` (a string, or a function of the rows) read the first seed's
    days, as does ``rows(days)``, which only a figure whose table is not one
    row per point supplies.
    """

    name: str
    description: str
    grid: Callable
    structure: Callable | None = None
    stats: dict = field(default_factory=dict)
    series: Callable = lambda rows, days: {}
    notes: str | Callable = ""
    rows: Callable | None = None

    def run(self, scale: float = 25.0, seeds=(0,), **axes) -> ExperimentResult:
        """This figure alone, over its grid's ``axes``."""
        return run_figures([(self, axes)], scale, seeds)[0]


def run_figures(requests, scale: float = 25.0, seeds=(0,)) -> list[ExperimentResult]:
    """Run figures' grids, simulating each distinct day once.

    ``requests`` holds ``(figure, axes)`` pairs: keywords of the figure's
    grid plus, optionally, ``seeds`` for that figure alone.  A day is a
    pure function of its configuration, topology and capacities, so it
    runs once under that key however many grids meet it; every result
    reads its statistics and series afresh, so none aliases another.
    """
    simulated = {}

    def day(label, overrides, structure, seed):
        config = SimulationConfig.scaled(scale, seed=seed, **overrides)
        system = None if config.scheme == "none" else structure(label)
        key = (config,) if system is None else (config, system.topology, system.V.tobytes())
        if key not in simulated:
            simulated[key] = run_simulation(config, system)
        return simulated[key]

    results = []
    for figure, axes in requests:
        axes = dict(axes)
        figure_seeds = axes.pop("seeds", seeds)
        points = figure.grid(scale, **axes)
        # by_seed[s][i] is point i's day under the s-th seed
        by_seed = [[day(*point, figure.structure, s) for point in points] for s in figure_seeds]
        if figure.rows:
            rows = figure.rows(by_seed[0])
        else:
            rows = [
                {**label, **{c: _mean(stat, label, days) for c, stat in figure.stats.items()}}
                for (label, _), days in zip(points, zip(*by_seed))
            ]
        notes = figure.notes(rows) if callable(figure.notes) else figure.notes
        series = figure.series(rows, by_seed[0])
        results.append(ExperimentResult(figure.name, figure.description, rows, series, notes))
    return results


def _mean(stat, label: dict, days) -> float:
    return float(np.mean([stat(day, label) for day in days]))
