"""Trace file I/O.

The simulator is trace-driven; where a real trace is available it can be
substituted for the synthetic generator: :func:`read_trace` returns the
same :class:`~repro.workload.generator.Stream` the generator does.  The
format is a minimal CSV — ``arrival_seconds,length_bytes[,origin]`` —
with ``#`` comments.  A parser for the Common Log Format (the format the
Berkeley-era traces shipped in) is included so raw proxy logs can be
converted.
"""

from __future__ import annotations

import re
from pathlib import Path

from ..errors import WorkloadError
from .generator import Request, Stream

__all__ = ["read_trace", "write_trace", "parse_common_log_line"]

_CLF_RE = re.compile(
    r'^(?P<host>\S+) \S+ \S+ \[(?P<ts>[^\]]+)\] "(?P<req>[^"]*)" '
    r"(?P<status>\d{3}) (?P<size>\d+|-)"
)
_MONTHS = {
    m: i + 1
    for i, m in enumerate(
        "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()
    )
}


def write_trace(path: str | Path, stream: Stream) -> int:
    """Write a stream as CSV; returns the number of rows written."""
    path = Path(path)
    rows = zip(stream.arrivals.tolist(), stream.lengths.tolist(), stream.origins.tolist())
    with path.open("w") as fh:
        fh.write("# arrival_seconds,length_bytes,origin\n")
        fh.writelines(f"{t:.6f},{x:.1f},{o}\n" for t, x, o in rows)
    return len(stream)


def read_trace(path: str | Path) -> Stream:
    """Read a CSV trace written by :func:`write_trace` (or hand-made).

    Rows are stably sorted by arrival; a two-column row has origin 0.
    """
    path = Path(path)
    arrivals: list[float] = []
    lengths: list[float] = []
    origins: list[int] = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) not in (2, 3):
                raise WorkloadError(
                    f"{path}:{lineno}: expected 2 or 3 comma-separated fields, "
                    f"got {len(parts)}"
                )
            try:
                arrival = float(parts[0])
                length = float(parts[1])
                origin = int(parts[2]) if len(parts) == 3 else 0
            except ValueError as exc:
                raise WorkloadError(f"{path}:{lineno}: {exc}") from None
            if arrival < 0 or length < 0:
                raise WorkloadError(
                    f"{path}:{lineno}: negative arrival or length"
                )
            arrivals.append(arrival)
            lengths.append(length)
            origins.append(origin)
    return Stream.from_columns(arrivals, lengths, origins)


def parse_common_log_line(line: str, day_origin: bool = True) -> Request | None:
    """Parse one Common Log Format line into a :class:`Request`.

    Returns ``None`` for unparseable lines or missing sizes (callers
    typically skip those).  With ``day_origin=True`` the timestamp is
    reduced to seconds since local midnight, matching the simulator's
    wrapped 24-hour clock.
    """
    m = _CLF_RE.match(line)
    if m is None:
        return None
    size_field = m.group("size")
    if size_field == "-":
        return None
    try:
        ts = m.group("ts")  # e.g. 01/Nov/1996:00:00:12 -0800
        datepart, timepart = ts.split(":", 1)
        day, mon, year = datepart.split("/")
        hh, mm, rest = timepart.split(":", 2)
        ss = rest.split()[0]
        seconds = int(hh) * 3600 + int(mm) * 60 + int(ss)
        if not day_origin:
            # Days since an arbitrary epoch within the month, for multi-day use.
            seconds += (int(day) - 1) * 86_400
        _ = _MONTHS[mon]  # validate month name
        _ = int(year)
    except (ValueError, KeyError):
        return None
    return Request(float(seconds), float(size_field))
