"""Tests for the column stream type and its vectorised sampler."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.proxysim import SimulationConfig
from repro.workload import (
    DiurnalProfile,
    Request,
    RequestStream,
    Stream,
    generate_streams,
)
from repro.workload.diurnal import DAY_SECONDS

from .stream_reference import generate_loop, sample_loop


class TestStream:
    def test_from_requests_sorts_stably(self):
        rows = [Request(2.0, 1.0, 0), Request(1.0, 2.0, 1), Request(1.0, 3.0, 2)]
        s = Stream.from_requests(rows)
        assert s.arrivals.tolist() == [1.0, 1.0, 2.0]
        assert s.lengths.tolist() == [2.0, 3.0, 1.0]
        assert s.origins.tolist() == [1, 2, 0]

    def test_iteration_yields_rows(self):
        rows = [Request(1.0, 10.0, 3), Request(2.5, 20.0, 3)]
        assert list(Stream.from_requests(rows)) == rows
        assert len(Stream.from_requests(rows)) == 2

    def test_scalar_origin_shared_by_every_row(self):
        s = Stream([0.0, 1.0, 2.0], [5.0, 5.0, 5.0], 4)
        assert s.origins.tolist() == [4, 4, 4]
        assert [r.origin for r in s] == [4, 4, 4]

    def test_columns_are_read_only_copies(self):
        arrivals = np.array([0.0, 1.0])
        s = Stream(arrivals, [1.0, 2.0])
        arrivals[0] = 9.0
        assert s.arrivals[0] == 0.0
        with pytest.raises(ValueError):
            s.arrivals[0] = 5.0
        with pytest.raises(ValueError):
            s.lengths[0] = 5.0

    def test_unsorted_arrivals_rejected(self):
        with pytest.raises(WorkloadError, match="sorted"):
            Stream([2.0, 1.0], [1.0, 1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(WorkloadError, match="1-D"):
            Stream([1.0, 2.0], [1.0])
        with pytest.raises(WorkloadError, match="origins"):
            Stream([1.0, 2.0], [1.0, 1.0], [0])

    def test_empty(self):
        s = Stream.from_requests([])
        assert len(s) == 0
        assert list(s) == []


def _assert_columns_equal(stream: Stream, reference) -> None:
    arrivals, lengths = reference
    assert np.array_equal(stream.arrivals, arrivals)
    assert np.array_equal(stream.lengths, lengths)


DAY = DiurnalProfile(requests_per_day=20_000.0)
SAMPLER_CASES = {
    "diurnal-day": RequestStream(DAY),
    "diurnal-week": RequestStream(
        DiurnalProfile(requests_per_day=2_000.0), horizon=7 * DAY_SECONDS
    ),
    "half-day": RequestStream(DAY, horizon=43_200.0),
    # 10_000 / 70 leaves a last slot 60 s wide
    "ragged-slots": RequestStream(DAY, horizon=10_000.0, slot_width=70.0),
}


class TestBitIdentityWithSlotLoop:
    """The vectorised sampler takes exactly the per-slot loop's draws."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
    def test_sample(self, case, seed):
        stream = SAMPLER_CASES[case]
        _assert_columns_equal(
            stream.sample(np.random.default_rng(seed)),
            sample_loop(stream, np.random.default_rng(seed)),
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_generate_streams_gap_3600(self, seed):
        profile = DiurnalProfile(requests_per_day=5_000.0)
        streams = generate_streams(4, profile, 3600.0, horizon=86_400.0, seed=seed)
        reference = generate_loop(4, profile, 3600.0, horizon=86_400.0, seed=seed)
        for i, (stream, ref) in enumerate(zip(streams, reference)):
            _assert_columns_equal(stream, ref)
            assert np.all(stream.origins == i)


def test_generated_day_retains_only_columns():
    """A benchmark-size day (~190k requests) keeps two float64 columns
    (~3 MB); one object per request would retain ~20 MB."""
    cfg = SimulationConfig.scaled(25, warmup_days=0, measure_days=1)
    tracemalloc.start()
    try:
        streams = generate_streams(
            cfg.n_proxies,
            cfg.base_profile(),
            cfg.gap,
            sizes=cfg.sizes,
            horizon=cfg.horizon,
            seed=cfg.seed,
        )
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 150_000 < sum(len(s) for s in streams) < 250_000
    assert retained < 8 * 2**20
