"""Tests for profile fitting from traces."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workload import DiurnalProfile, RequestStream
from repro.workload.diurnal import DAY_SECONDS
from repro.workload.fit import fit_profile, profile_fit_error
from repro.workload.generator import Request, Stream


class TestFitProfile:
    def test_roundtrip_default_profile(self):
        """Sampling the default profile and fitting must recover it."""
        truth = DiurnalProfile(requests_per_day=80_000.0)
        stream = RequestStream(truth, horizon=3 * DAY_SECONDS)
        reqs = stream.sample(np.random.default_rng(0))
        fitted = fit_profile(reqs)
        assert fitted.requests_per_day == pytest.approx(
            truth.requests_per_day, rel=0.03
        )
        t = np.linspace(0, DAY_SECONDS, 200)
        np.testing.assert_allclose(
            fitted.rate(t), truth.rate(t), rtol=0.15, atol=0.05 * truth.base_rate
        )

    def test_roundtrip_constant_profile(self):
        truth = DiurnalProfile(requests_per_day=40_000.0, a1=0.0, a2=0.0)
        reqs = RequestStream(truth).sample(np.random.default_rng(1))
        fitted = fit_profile(reqs)
        assert fitted.a1 < 0.05
        assert fitted.a2 < 0.05

    def test_skewed_profile_recovered(self):
        truth = DiurnalProfile(requests_per_day=80_000.0).with_skew(5 * 3600.0)
        reqs = RequestStream(truth, horizon=2 * DAY_SECONDS).sample(
            np.random.default_rng(2)
        )
        fitted = fit_profile(reqs)
        t = np.linspace(0, DAY_SECONDS, 200)
        # the fit folds the skew into its phases; rates must still match
        np.testing.assert_allclose(
            fitted.rate(t), truth.rate(t), rtol=0.2, atol=0.05 * truth.base_rate
        )

    def test_empty_trace_rejected(self):
        with pytest.raises(WorkloadError, match="empty"):
            fit_profile(Stream.from_requests([]))

    def test_positivity_clamp(self):
        """A pathological spike trace fits without violating positivity."""
        reqs = Stream.from_requests([Request(100.0 + i * 0.001, 1000.0) for i in range(5_000)])
        fitted = fit_profile(reqs)
        assert abs(fitted.a1) + abs(fitted.a2) < 1.0


class TestFitError:
    def test_matching_profile_low_error(self):
        truth = DiurnalProfile(requests_per_day=80_000.0)
        reqs = RequestStream(truth, horizon=2 * DAY_SECONDS).sample(
            np.random.default_rng(3)
        )
        assert profile_fit_error(reqs, truth) < 0.35

    def test_wrong_profile_high_error(self):
        truth = DiurnalProfile(requests_per_day=80_000.0)
        reqs = RequestStream(truth).sample(np.random.default_rng(4))
        wrong = truth.with_skew(12 * 3600.0)  # peak moved to the trough
        assert profile_fit_error(reqs, wrong) > 3 * profile_fit_error(reqs, truth)

    def test_empty(self):
        with pytest.raises(WorkloadError):
            profile_fit_error(Stream.from_requests([]), DiurnalProfile())
