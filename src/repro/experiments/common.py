"""Shared plumbing for the experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ExperimentResult", "mean_over_seeds"]


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

    def table(self) -> str:
        """Render rows as an aligned text table."""
        if not self.rows:
            return "(no rows)"
        cols = list(self.rows[0].keys())
        cells = [[_fmt(r.get(c)) for c in cols] for r in self.rows]
        widths = [
            max(len(c), *(len(row[i]) for row in cells))
            for i, c in enumerate(cols)
        ]
        def line(vals):
            return "  ".join(v.rjust(w) for v, w in zip(vals, widths))
        out = [line(cols), line(["-" * w for w in widths])]
        out.extend(line(row) for row in cells)
        return "\n".join(out)

    def render(self) -> str:
        head = f"== {self.experiment}: {self.description} =="
        parts = [head, self.table()]
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)

    def to_csv(self, directory) -> list:
        """Write rows (and each series) as CSV files; returns paths written.

        ``<experiment>_rows.csv`` holds the summary table; when the result
        carries per-slot series, ``<experiment>_series.csv`` holds them as
        columns aligned on the slot axis — ready for any plotting tool.
        """
        import csv
        from pathlib import Path

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
            keys = list(self.series.keys())
            length = max(len(np.atleast_1d(self.series[k])) for k in keys)
            path = directory / f"{self.experiment}_series.csv"
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(keys)
                for i in range(length):
                    writer.writerow(
                        [
                            (np.atleast_1d(self.series[k])[i]
                             if i < len(np.atleast_1d(self.series[k])) else "")
                            for k in keys
                        ]
                    )
            written.append(path)
        return written

    def row_by(self, **match) -> dict:
        """First row whose items all match (for assertions in benches)."""
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row
        raise KeyError(f"no row matching {match}")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.3g}"
    return str(v)


def mean_over_seeds(fn, seeds) -> float:
    """Average a scalar-returning callable over several workload seeds."""
    vals = [fn(seed) for seed in seeds]
    return float(np.mean(vals))
