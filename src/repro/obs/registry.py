"""Metric primitives: counters, gauges, and histograms with labels.

A :class:`MetricsRegistry` is a flat namespace of named metrics, each
optionally split by a small set of string labels (for example
``transport.sent{endpoint=grm}``).  Labels are normalised to a sorted
tuple so ``counter("m", a=1, b=2)`` and ``counter("m", b=2, a=1)`` hit
the same series.

Histograms keep count/sum/min/max, which is enough for the report's
mean/max columns without storing every sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Histogram", "MetricsRegistry", "label_key", "label_str"]


def label_key(labels: dict) -> tuple:
    """Normalise a label dict to a hashable, order-independent key."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def label_str(key: tuple) -> str:
    """Render a normalised label key as ``k=v,k=v`` (empty for no labels)."""
    return ",".join(f"{k}={v}" for k, v in key)


@dataclass
class Histogram:
    """Streaming summary of observed values."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


class MetricsRegistry:
    """Counters, gauges, and histograms keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._counters: dict[str, dict[tuple, float]] = {}
        self._gauges: dict[str, dict[tuple, float]] = {}
        self._histograms: dict[str, dict[tuple, Histogram]] = {}

    # -- writes -------------------------------------------------------------

    def counter_inc(self, name: str, value: float = 1, **labels) -> None:
        series = self._counters.setdefault(name, {})
        key = label_key(labels)
        series[key] = series.get(key, 0.0) + value

    def gauge_set(self, name: str, value: float, **labels) -> None:
        self._gauges.setdefault(name, {})[label_key(labels)] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        series = self._histograms.setdefault(name, {})
        key = label_key(labels)
        hist = series.get(key)
        if hist is None:
            hist = series[key] = Histogram()
        hist.observe(value)

    # -- reads --------------------------------------------------------------

    def counter_value(self, name: str, **labels) -> float:
        """Value of one counter series (0 if never incremented)."""
        return self._counters.get(name, {}).get(label_key(labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum over all label combinations of a counter."""
        return sum(self._counters.get(name, {}).values())

    def gauge_value(self, name: str, **labels) -> float | None:
        return self._gauges.get(name, {}).get(label_key(labels))

    def get_histogram(self, name: str, **labels) -> Histogram | None:
        return self._histograms.get(name, {}).get(label_key(labels))

    def snapshot(self) -> dict:
        """Plain-dict dump of every metric, suitable for JSON export."""
        return {
            "counters": {
                name: {label_str(k): v for k, v in series.items()}
                for name, series in sorted(self._counters.items())
            },
            "gauges": {
                name: {label_str(k): v for k, v in series.items()}
                for name, series in sorted(self._gauges.items())
            },
            "histograms": {
                name: {label_str(k): h.summary() for k, h in series.items()}
                for name, series in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
