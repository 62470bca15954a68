"""Structured JSONL trace export.

One line per record, each a self-describing JSON object with a ``kind``
field:

- ``{"kind": "span", "name": ..., "path": ..., "dur": ..., "attrs": {...},
   "trace": ..., "span": ..., "parent": ...}`` — one closed, sampled-in span;
- ``{"kind": "decision", "request_id": ..., "outcome": ..., ...}`` — one
  flight-recorder entry (see :mod:`repro.obs.decision`);
- ``{"kind": "snapshot", "counters": ..., "gauges": ..., "histograms": ...}``
  — the whole metrics registry, written on flush; the last one wins.

Every record carries ``ts``, seconds since the log was opened (wall
clock), so traces are self-contained and replayable by
``scripts/obs_trace.py report`` without any in-process state.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path

__all__ = ["EventLog", "read_trace"]

#: in-memory mode keeps only the most recent records, so a long
#: metrics-only run (e.g. a whole test suite under REPRO_OBS=1) cannot
#: grow without bound
MAX_BUFFERED_RECORDS = 65536


class EventLog:
    """Append-only JSONL writer (or bounded in-memory buffer when ``path`` is None)."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._t0 = time.perf_counter()
        self._records: deque[dict] | None = None
        #: True once :meth:`close` has run
        self.closed = False
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w", encoding="utf-8")
        else:
            self._fh = None
            self._records = deque(maxlen=MAX_BUFFERED_RECORDS)

    def emit(self, record: dict) -> None:
        record.setdefault("ts", round(time.perf_counter() - self._t0, 6))
        if self._fh is not None:
            self._fh.write(json.dumps(record, default=_jsonable) + "\n")
        else:
            self._records.append(record)

    def records(self) -> list[dict]:
        """In-memory records (empty when writing to a file)."""
        return list(self._records or [])

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self.closed = True


def _jsonable(value):
    """Fallback serialiser: numpy scalars and anything else stringable."""
    if hasattr(value, "item"):
        return value.item()
    return str(value)


def read_trace(path: str | Path) -> list[dict]:
    """Parse a JSONL trace back into a list of records.

    Lines that do not decode are skipped: a process killed mid-write
    leaves a torn final line, and that must not make the rest of the
    trace unreadable.
    """
    records = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                records.append(record)
    return records
