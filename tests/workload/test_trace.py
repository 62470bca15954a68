"""Tests for trace file I/O and the Common Log Format parser."""

import pytest

from repro.errors import WorkloadError
from repro.workload import Request, Stream, read_trace, write_trace
from repro.workload.trace import parse_common_log_line


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        reqs = [Request(1.5, 2048.0, 0), Request(0.5, 512.0, 2)]
        path = tmp_path / "trace.csv"
        assert write_trace(path, Stream.from_requests(reqs)) == 2
        back = read_trace(path)
        # read_trace sorts by arrival
        assert back.arrivals[0] == pytest.approx(0.5)
        assert back.origins[0] == 2
        assert back.lengths[1] == pytest.approx(2048.0)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# header\n\n1.0,100\n")
        reqs = read_trace(path)
        assert len(reqs) == 1
        assert reqs.origins[0] == 0  # default origin

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1.0,100,2,9\n")
        with pytest.raises(WorkloadError, match="fields"):
            read_trace(path)

    def test_bad_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("abc,100\n")
        with pytest.raises(WorkloadError):
            read_trace(path)

    def test_negative_values_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("-1.0,100\n")
        with pytest.raises(WorkloadError, match="negative"):
            read_trace(path)


class TestCommonLogFormat:
    LINE = '1.2.3.4 - - [01/Nov/1996:13:30:12 -0800] "GET /x.html HTTP/1.0" 200 5120'

    def test_parse_basic(self):
        req = parse_common_log_line(self.LINE)
        assert req is not None
        assert req.length == pytest.approx(5120.0)
        assert req.arrival == pytest.approx(13 * 3600 + 30 * 60 + 12)

    def test_multiday_offset(self):
        line = self.LINE.replace("01/Nov", "03/Nov")
        req = parse_common_log_line(line, day_origin=False)
        assert req.arrival == pytest.approx(2 * 86_400 + 13 * 3600 + 30 * 60 + 12)

    def test_missing_size_skipped(self):
        line = self.LINE.rsplit(" ", 1)[0] + " -"
        assert parse_common_log_line(line) is None

    def test_garbage_line_skipped(self):
        assert parse_common_log_line("not a log line") is None

    def test_bad_month_skipped(self):
        assert parse_common_log_line(self.LINE.replace("Nov", "Foo")) is None
