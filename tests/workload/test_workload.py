"""Tests for the diurnal profile, size distributions, and stream generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload import (
    DiurnalProfile,
    LogNormalSizes,
    ParetoSizes,
    RequestStream,
    generate_streams,
)
from repro.workload.diurnal import DAY_SECONDS
from repro.workload.sizes import HybridSizes


class TestDiurnalProfile:
    def test_mean_rate(self):
        p = DiurnalProfile(requests_per_day=86_400.0)
        assert p.base_rate == pytest.approx(1.0)
        # The Fourier shape integrates to ~1 over a day.
        assert p.expected_count(0, DAY_SECONDS, steps=2048) == pytest.approx(
            86_400.0, rel=1e-3
        )

    def test_peak_at_midnight_trough_early_morning(self):
        """The paper's Figure 5 shape: heaviest around midnight, lightest
        in the early morning hours."""
        p = DiurnalProfile(requests_per_day=86_400.0)
        t = np.linspace(0, DAY_SECONDS, 2881)
        rates = p.rate(t)
        peak_hour = t[np.argmax(rates)] / 3600.0
        trough_hour = t[np.argmin(rates)] / 3600.0
        assert peak_hour < 1.5 or peak_hour > 22.5  # near midnight
        assert 2.0 <= trough_hour <= 9.0  # early morning

    def test_peak_trough_ratio(self):
        p = DiurnalProfile(requests_per_day=86_400.0)
        assert 3.0 <= p.peak_rate / p.trough_rate <= 8.0

    def test_rate_positive_everywhere(self):
        p = DiurnalProfile(requests_per_day=1000.0)
        t = np.linspace(0, DAY_SECONDS, 10_001)
        assert np.all(p.rate(t) > 0)

    def test_skew_shifts_profile(self):
        p = DiurnalProfile(requests_per_day=86_400.0)
        q = p.with_skew(3_600.0)
        assert q.rate(7_200.0) == pytest.approx(p.rate(3_600.0))

    def test_skews_compose(self):
        p = DiurnalProfile().with_skew(3_600.0).with_skew(1_800.0)
        assert p.skew == 5_400.0

    def test_wraps_daily(self):
        p = DiurnalProfile(requests_per_day=1000.0)
        assert p.rate(1_000.0) == pytest.approx(p.rate(1_000.0 + DAY_SECONDS))

    def test_scaled_changes_volume_not_shape(self):
        p = DiurnalProfile(requests_per_day=1000.0)
        q = p.scaled(2.0)
        assert q.rate(500.0) == pytest.approx(2 * p.rate(500.0))

    def test_validation(self):
        with pytest.raises(WorkloadError):
            DiurnalProfile(requests_per_day=0)
        with pytest.raises(WorkloadError):
            DiurnalProfile(a1=0.9, a2=0.2)  # rate would go negative
        with pytest.raises(WorkloadError):
            DiurnalProfile().scaled(-1)
        with pytest.raises(WorkloadError):
            DiurnalProfile().expected_count(5.0, 1.0)


class TestSizes:
    def test_lognormal_mean(self):
        d = LogNormalSizes(median=6_000.0, sigma=1.2)
        rng = np.random.default_rng(0)
        sample = d.sample(rng, 200_000)
        assert sample.mean() == pytest.approx(d.mean, rel=0.05)

    def test_pareto_mean(self):
        d = ParetoSizes(minimum=1_000.0, alpha=1.8)
        rng = np.random.default_rng(0)
        sample = d.sample(rng, 400_000)
        assert sample.mean() == pytest.approx(d.mean, rel=0.1)

    def test_samples_positive_and_capped(self):
        for d in (LogNormalSizes(), ParetoSizes(alpha=1.1), HybridSizes()):
            sample = d.sample(np.random.default_rng(1), 10_000)
            assert np.all(sample > 0)
            assert np.all(sample <= 100e6)

    def test_pareto_validation(self):
        with pytest.raises(WorkloadError):
            ParetoSizes(alpha=1.0)
        with pytest.raises(WorkloadError):
            ParetoSizes(minimum=0)

    def test_hybrid_mixture_mean(self):
        d = HybridSizes(tail_fraction=0.0)
        assert d.mean == pytest.approx(d.body.mean)

    def test_hybrid_validation(self):
        with pytest.raises(WorkloadError):
            HybridSizes(tail_fraction=1.5)


class TestRequestStream:
    def test_expected_volume(self):
        p = DiurnalProfile(requests_per_day=5_000.0)
        stream = RequestStream(p)
        reqs = stream.sample(np.random.default_rng(0))
        assert len(reqs) == pytest.approx(5_000, rel=0.1)

    def test_sorted_arrivals_within_horizon(self):
        p = DiurnalProfile(requests_per_day=2_000.0)
        reqs = RequestStream(p, horizon=43_200.0).sample(np.random.default_rng(1))
        times = [r.arrival for r in reqs]
        assert times == sorted(times)
        assert all(0 <= t <= 43_200.0 for t in times)

    def test_arrivals_follow_profile(self):
        """More arrivals near the peak than near the trough."""
        p = DiurnalProfile(requests_per_day=50_000.0)
        reqs = RequestStream(p).sample(np.random.default_rng(2))
        times = np.array([r.arrival for r in reqs])
        peak_count = np.sum(times < 2 * 3600)  # midnight..2am
        trough_count = np.sum((times > 4 * 3600) & (times < 6 * 3600))
        assert peak_count > 2 * trough_count

    @given(st.integers(0, 100_000))
    @settings(max_examples=15, deadline=None)
    def test_deterministic_given_seed(self, seed):
        p = DiurnalProfile(requests_per_day=500.0)
        a = RequestStream(p).sample(np.random.default_rng(seed))
        b = RequestStream(p).sample(np.random.default_rng(seed))
        assert [r.arrival for r in a] == [r.arrival for r in b]


class TestGenerateStreams:
    def test_origins_and_count(self):
        p = DiurnalProfile(requests_per_day=1_000.0)
        streams = generate_streams(3, p, gap=3_600.0, seed=0)
        assert len(streams) == 3
        for i, s in enumerate(streams):
            assert all(r.origin == i for r in s)

    def test_gap_skews_streams(self):
        """With a positive gap, proxy i's rush hour comes i*gap later."""
        p = DiurnalProfile(requests_per_day=100_000.0)
        streams = generate_streams(2, p, gap=6 * 3_600.0, seed=3)

        def peak_hour(stream):
            times = np.array([r.arrival for r in stream]) % DAY_SECONDS
            hist, edges = np.histogram(times, bins=24, range=(0, DAY_SECONDS))
            return edges[np.argmax(hist)] / 3600.0

        h0, h1 = peak_hour(streams[0]), peak_hour(streams[1])
        assert (h1 - h0) % 24 == pytest.approx(6.0, abs=1.5)

    def test_independent_realisations(self):
        p = DiurnalProfile(requests_per_day=1_000.0)
        streams = generate_streams(2, p, gap=0.0, seed=0)
        t0 = [r.arrival for r in streams[0]]
        t1 = [r.arrival for r in streams[1]]
        assert t0 != t1  # same profile, different draws

    def test_zero_proxies_rejected(self):
        with pytest.raises(WorkloadError):
            generate_streams(0, DiurnalProfile(), gap=0.0)

    def test_entropy_seed_rejected(self):
        with pytest.raises(TypeError):
            generate_streams(2, DiurnalProfile(), gap=0.0, seed=None)
