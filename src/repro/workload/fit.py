"""Fitting a diurnal profile to an observed trace.

Given a request trace (e.g. parsed from proxy logs via
:mod:`repro.workload.trace`), recover the
:class:`~repro.workload.diurnal.DiurnalProfile` that best explains its
arrival times.  The fit is a linear least squares over the profile's
Fourier basis applied to per-bin arrival rates, so it is exact in the
noiseless limit and cheap always.  Use cases: estimating arrival
projections for the scheduler from historical logs, and checking how
Berkeley-like a substituted trace actually is
(:func:`profile_fit_error`).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import WorkloadError
from .diurnal import DAY_SECONDS, DiurnalProfile
from .generator import Stream

__all__ = ["fit_profile", "profile_fit_error"]


def _binned_rates(stream: Stream, bins: int):
    if len(stream) == 0:
        raise WorkloadError("cannot fit a profile to an empty trace")
    arrivals = stream.arrivals
    width = DAY_SECONDS / bins
    slot = ((arrivals % DAY_SECONDS) // width).astype(np.int64) % bins
    counts = np.bincount(slot, minlength=bins)
    max_t = max(float(arrivals[-1]), 0.0)
    total_days = max(math.ceil((max_t + 1e-9) / DAY_SECONDS), 1)
    rates = counts / (width * total_days)
    mids = (np.arange(bins) + 0.5) * width
    return mids, rates, total_days


def fit_profile(stream: Stream, bins: int = 48) -> DiurnalProfile:
    """Least-squares fit of the two-harmonic diurnal model to a trace.

    The model is ``rate(t) = b0 + c1 cos w + s1 sin w + c2 cos 2w +
    s2 sin 2w`` with ``w = 2 pi t / day``; the coefficients convert back
    to the profile's ``(a1, phase1, a2, phase2)`` parameterisation.
    Traces shorter than one day are extrapolated pro rata; empty traces
    are rejected.
    """
    mids, rates, _days = _binned_rates(stream, bins)
    w = 2.0 * math.pi * mids / DAY_SECONDS
    X = np.column_stack(
        [np.ones_like(w), np.cos(w), np.sin(w), np.cos(2 * w), np.sin(2 * w)]
    )
    beta, *_ = np.linalg.lstsq(X, rates, rcond=None)
    b0, c1, s1, c2, s2 = beta
    if b0 <= 0:
        raise WorkloadError("trace has non-positive mean rate; cannot fit")
    a1 = math.hypot(c1, s1) / b0
    phase1 = math.atan2(s1, c1)
    a2 = math.hypot(c2, s2) / b0
    phase2 = math.atan2(s2, c2)
    # Clamp into the profile's positivity domain.
    total = a1 + a2
    if total >= 1.0:
        shrink = 0.999 / total
        a1 *= shrink
        a2 *= shrink
    return DiurnalProfile(
        requests_per_day=b0 * DAY_SECONDS,
        a1=a1,
        phase1=phase1,
        a2=a2,
        phase2=phase2,
    )


def profile_fit_error(
    stream: Stream, profile: DiurnalProfile, bins: int = 48
) -> float:
    """Normalised RMS error between a trace's binned rates and a profile.

    0 means the profile explains the trace perfectly; values near 1 mean
    the profile is no better than guessing the mean.  Useful when
    substituting a real trace to confirm it is diurnal-shaped before
    reusing the paper's experiment configurations.
    """
    mids, rates, _days = _binned_rates(stream, bins)
    predicted = profile.rate(mids)
    rms = float(np.sqrt(np.mean((rates - predicted) ** 2)))
    scale = float(np.std(rates)) or 1.0
    return rms / scale
