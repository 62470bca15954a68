"""Tests for the slot-series and summary statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.proxysim.metrics import SlotSeries, SummaryStats


class TestSlotSeries:
    def test_geometry(self):
        s = SlotSeries(horizon=86_400.0, width=600.0)
        assert s.slots == 144  # the paper's 10-minute slots
        assert s.slot_times()[1] == 600.0

    def test_record_and_means(self):
        s = SlotSeries(horizon=100.0, width=10.0)
        s.record(5.0, 2.0)
        s.record(7.0, 4.0)
        s.record(15.0, 10.0)
        means = s.means()
        assert means[0] == pytest.approx(3.0)
        assert means[1] == pytest.approx(10.0)
        assert s.counts().tolist()[:3] == [2, 1, 0]

    def test_wraps_modulo_horizon(self):
        s = SlotSeries(horizon=100.0, width=10.0)
        s.record(105.0, 1.0)  # lands in slot 0
        assert s.counts()[0] == 1

    def test_peak_and_overall_mean(self):
        s = SlotSeries(horizon=100.0, width=10.0)
        s.record(5.0, 2.0)
        s.record(15.0, 8.0)
        assert s.peak_mean() == pytest.approx(8.0)
        assert s.overall_mean() == pytest.approx(5.0)

    def test_empty_series(self):
        s = SlotSeries(horizon=100.0, width=10.0)
        assert s.peak_mean() == 0.0
        assert s.overall_mean() == 0.0
        assert not np.any(s.means())

    def test_merge(self):
        a = SlotSeries(horizon=100.0, width=10.0)
        b = SlotSeries(horizon=100.0, width=10.0)
        a.record(5.0, 2.0)
        b.record(5.0, 4.0)
        a.merge(b)
        assert a.means()[0] == pytest.approx(3.0)
        assert a.counts()[0] == 2

    def test_merge_geometry_mismatch(self):
        a = SlotSeries(horizon=100.0, width=10.0)
        b = SlotSeries(horizon=100.0, width=20.0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SlotSeries(horizon=0, width=10)
        with pytest.raises(ValueError):
            SlotSeries(horizon=10, width=0)

    @given(st.lists(st.tuples(st.floats(0, 86_399), st.floats(0, 1e3)),
                    min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_overall_mean_matches_numpy(self, observations):
        s = SlotSeries()
        for t, v in observations:
            s.record(t, v)
        values = [v for _, v in observations]
        assert s.overall_mean() == pytest.approx(np.mean(values), rel=1e-9)
        assert int(s.counts().sum()) == len(observations)


class TestSummaryStats:
    def test_streaming_aggregates(self):
        st_ = SummaryStats()
        for v in (1.0, 2.0, 3.0, 10.0):
            st_.record(v)
        assert st_.count == 4
        assert st_.mean == pytest.approx(4.0)

    def test_empty(self):
        st_ = SummaryStats()
        assert st_.mean == 0.0
