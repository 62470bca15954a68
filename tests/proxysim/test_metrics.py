"""Tests for SimulationResult metrics."""

import numpy as np
import pytest

from repro.proxysim import SimulationResult


@pytest.fixture
def result():
    r = SimulationResult(n_proxies=3)
    # proxy 0: two requests at hour 1 with waits 2 and 4, the second redirected
    r.record_wait(0, 3_600.0, 2.0)
    r.record_wait(0, 3_700.0, 4.0, redirected=True)
    # proxy 1: one request at hour 2 with wait 10
    r.record_wait(1, 7_200.0, 10.0)
    return r


class TestRecording:
    def test_totals(self, result):
        assert result.total_requests == 3
        assert result.total_redirected == 1

    def test_per_proxy_series(self, result):
        assert result.mean_wait_series(0)[6] == pytest.approx(3.0)
        assert result.mean_wait_series(1)[12] == pytest.approx(10.0)

    def test_aggregate_series(self, result):
        assert result.mean_wait_series(None)[6] == pytest.approx(3.0)
        assert result.overall_mean_wait() == pytest.approx(16.0 / 3)

    def test_request_counts(self, result):
        assert result.request_count_series(0)[6] == 2
        assert result.request_count_series(None).sum() == 3


class TestWorstCase:
    def test_per_proxy(self, result):
        assert result.worst_case_wait(0) == pytest.approx(3.0)
        assert result.worst_case_wait(1) == pytest.approx(10.0)
        assert result.worst_case_wait(None) == pytest.approx(10.0)

    def test_over_origin_subset(self, result):
        # merging 0 and 1: hour-1 slot mean 3, hour-2 slot mean 10
        assert result.worst_case_wait_over([0, 1]) == pytest.approx(10.0)
        assert result.worst_case_wait_over([0]) == pytest.approx(3.0)

    def test_empty_proxy(self, result):
        assert result.worst_case_wait(2) == 0.0


class TestRedirectStats:
    def test_fractions(self, result):
        assert result.redirect_fraction() == pytest.approx(1 / 3)
        # hour-1 slot: 1 redirect / 2 requests
        assert result.peak_redirect_fraction() == pytest.approx(0.5)

    def test_empty_result(self):
        r = SimulationResult(n_proxies=1)
        assert r.redirect_fraction() == 0.0
        assert r.peak_redirect_fraction() == 0.0

    def test_summary_rounding(self, result):
        s = result.summary()
        assert s["total_requests"] == 3
        assert isinstance(s["mean_wait"], float)
