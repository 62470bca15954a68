"""Tests for SimulationResult: the per-(origin, slot) table and its views."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestSlots:
    def test_geometry(self):
        r = SimulationResult(n_proxies=1)
        assert r.mean_wait_series(0).shape == (144,)  # the paper's 10-minute slots
        assert r.slot_times()[1] == 600.0
        assert r.table().shape == (1, 144, 4)

    def test_binning(self):
        r = SimulationResult(n_proxies=1)
        r.record_wait(0, 5.0, 2.0)
        r.record_wait(0, 599.0, 4.0)
        r.record_wait(0, 600.0, 10.0)
        assert r.mean_wait_series(0)[:2] == pytest.approx([3.0, 10.0])
        assert r.request_count_series(0).tolist()[:3] == [2, 1, 0]
        assert r.request_count_series(0).dtype == np.int64

    def test_wraps_past_midnight(self):
        r = SimulationResult(n_proxies=1)
        r.record_wait(0, 90_000.0, 1.0)  # a day later, in the 3,600 s slot
        counts = r.request_count_series(0)
        assert counts[6] == 1 and counts.sum() == 1

    def test_empty_slots_read_zero(self, result):
        assert not np.any(result.mean_wait_series(2))
        assert result.mean_wait_series(None)[0] == 0.0
        assert result.overall_mean_wait(2) == 0.0

    def test_peak_slot(self):
        r = SimulationResult(n_proxies=1)
        r.record_wait(0, 5.0, 2.0)
        r.record_wait(0, 605.0, 8.0)
        assert r.worst_case_wait(0) == pytest.approx(8.0)
        assert r.overall_mean_wait(0) == pytest.approx(5.0)


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

    def test_origins_pool_within_a_slot(self):
        # two origins in the same slot pool into one mean, not the max of two
        r = SimulationResult(n_proxies=2)
        r.record_wait(0, 5.0, 2.0)
        r.record_wait(1, 5.0, 4.0)
        assert r.worst_case_wait_over([0, 1]) == pytest.approx(3.0)
        assert r.request_count_series(None)[0] == 2


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

    def test_split_mean_wait(self, result):
        # local waits 2 and 10, redirected wait 4
        assert result.split_mean_wait() == pytest.approx((6.0, 4.0))

    def test_split_mean_wait_empty(self):
        assert SimulationResult(n_proxies=1).split_mean_wait() == (0.0, 0.0)


N = 4
records = st.lists(
    st.tuples(
        st.integers(0, N - 1),
        st.floats(0, 3 * 86_400.0),
        st.floats(0, 1e3),
        st.booleans(),
    ),
    max_size=200,
)


class TestViewsAgree:
    """Every view of the one table tells the same story."""

    @staticmethod
    def fill(rows):
        r = SimulationResult(n_proxies=N)
        for origin, arrival, wait, redirected in rows:
            r.record_wait(origin, arrival, wait, redirected)
        return r

    @given(records)
    @settings(max_examples=50, deadline=None)
    def test_all_isp_counts_sum_origins(self, rows):
        r = self.fill(rows)
        per_origin = sum(r.request_count_series(k) for k in range(N))
        assert np.array_equal(r.request_count_series(None), per_origin)
        assert r.total_requests == len(rows)
        assert r.total_redirected == sum(red for *_, red in rows)

    @given(records)
    @settings(max_examples=50, deadline=None)
    def test_worst_over_all_origins_is_all_isp_worst(self, rows):
        r = self.fill(rows)
        assert r.worst_case_wait_over(range(N)) == r.worst_case_wait(None)

    @given(records)
    @settings(max_examples=50, deadline=None)
    def test_split_means_recombine(self, rows):
        r = self.fill(rows)
        local, redirected = r.split_mean_wait()
        n_red = r.total_redirected
        n_local = r.total_requests - n_red
        recombined = (
            (local * n_local + redirected * n_red) / r.total_requests
            if r.total_requests else 0.0
        )
        assert recombined == pytest.approx(r.overall_mean_wait(), rel=1e-9, abs=1e-9)
        waits = [w for *_, w, _ in rows]
        assert r.overall_mean_wait() == pytest.approx(
            np.mean(waits) if waits else 0.0, rel=1e-9, abs=1e-9
        )
