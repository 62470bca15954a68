"""Tests for the proxy simulation loop.

These use a tiny workload (scale 200, 2 proxies where possible) so each
simulation runs in well under a second; the figure-level behaviour is
covered by benchmarks/.
"""

import numpy as np
import pytest

from repro.agreements import complete_structure
from repro.errors import SimulationError
from repro.proxysim import ProxySimulation, SimulationConfig, run_simulation
from repro.workload import Request, Stream, read_trace


def tiny_config(**overrides):
    defaults = dict(
        n_proxies=2,
        requests_per_day=800.0,
        gap=3_600.0,
        scheme="none",
        epoch=300.0,
        threshold=10.0,
        warmup_days=0,
        measure_days=1,
        seed=0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestConservation:
    def test_every_request_served_exactly_once(self):
        cfg = tiny_config()
        sim = ProxySimulation(cfg)
        expected = sum(len(s) for s in sim.streams)
        result = sim.run()
        assert result.total_requests == expected

    def test_served_once_with_redirection(self):
        cfg = tiny_config(scheme="lp", n_proxies=3)
        system = complete_structure(3, 0.1)
        sim = ProxySimulation(cfg, system)
        expected = sum(len(s) for s in sim.streams)
        result = sim.run()
        assert result.total_requests == expected

    def test_warmup_excluded_from_stats(self):
        cfg = tiny_config(warmup_days=1, measure_days=1)
        sim = ProxySimulation(cfg)
        result = sim.run()
        measured = sum(
            1 for s in sim.streams for r in s if r.arrival >= cfg.measure_start
        )
        assert result.total_requests == measured

    def test_waits_nonnegative(self):
        result = run_simulation(tiny_config())
        assert np.all(result.waits_all.means() >= 0)


class TestExternalStreams:
    def test_supplied_streams_used(self):
        reqs0 = [Request(100.0 * i, 5_000.0, 0) for i in range(10)]
        reqs1 = [Request(50.0 + 100.0 * i, 5_000.0, 1) for i in range(10)]
        cfg = tiny_config(warmup_days=0)
        streams = [Stream.from_requests(reqs0), Stream.from_requests(reqs1)]
        result = run_simulation(cfg, streams=streams)
        assert result.total_requests == 20

    def test_waits_follow_stream_not_row_origin(self, tmp_path):
        """A two-column trace reads back with origin 0 on every row; fed in
        as proxy 1's stream, its waits still belong to proxy 1."""
        paths = []
        for k in range(2):
            path = tmp_path / f"proxy{k}.csv"
            path.write_text("".join(f"{50.0 * k + 100.0 * i},5000\n" for i in range(10)))
            paths.append(path)
        streams = [read_trace(p) for p in paths]
        assert all(int(o) == 0 for s in streams for o in s.origins)
        result = run_simulation(tiny_config(warmup_days=0), streams=streams)
        counts = [int(w.counts().sum()) for w in result.waits_by_proxy]
        assert counts == [10, 10]

    def test_row_origin_beyond_proxy_count_ignored(self):
        rows = [Request(100.0 * i, 5_000.0, 7) for i in range(5)]
        streams = [Stream.from_requests(rows), Stream.from_requests(rows)]
        result = run_simulation(tiny_config(warmup_days=0), streams=streams)
        assert [int(w.counts().sum()) for w in result.waits_by_proxy] == [5, 5]

    def test_request_lists_rejected(self):
        rows = [Request(100.0, 5_000.0, 0)]
        with pytest.raises(TypeError, match="Stream"):
            run_simulation(tiny_config(), streams=[rows, rows])

    def test_stream_count_mismatch(self):
        with pytest.raises(ValueError, match="streams"):
            run_simulation(tiny_config(), streams=[Stream.from_requests([])])

    def test_deterministic_waits_for_fixed_stream(self):
        """Two closely spaced heavy requests: exact Lindley waits."""
        service_len = 1_000_000.0  # 0.1 + 1.0 = 1.1 s service
        reqs = [Request(10.0, service_len, 0), Request(10.5, service_len, 0)]
        cfg = tiny_config(n_proxies=1, gap=0.0, epoch=100.0)
        result = run_simulation(cfg, streams=[Stream.from_requests(reqs)])
        # first waits 0; second waits (10 + 1.1) - 10.5 = 0.6
        total_wait = float(result.waits_all._sum.sum())
        assert total_wait == pytest.approx(0.6)


class TestRedirection:
    def overload(self, scheme, **overrides):
        """Proxy 0 slammed, proxy 1 idle; redirection should help."""
        burst = [Request(1000.0 + i * 0.01, 3e6, 0) for i in range(60)]
        idle = [Request(40_000.0, 1_000.0, 1)]
        cfg = tiny_config(
            scheme=scheme, epoch=60.0, threshold=5.0, warmup_days=0,
            **overrides,
        )
        system = complete_structure(2, share=0.5)
        streams = [Stream.from_requests(burst), Stream.from_requests(idle)]
        return ProxySimulation(cfg, system, streams=streams)

    def make_overload(self, scheme, **overrides):
        return self.overload(scheme, **overrides).run()

    def test_no_sharing_never_redirects(self):
        result = self.make_overload("none")
        assert result.total_redirected == 0

    def test_lp_redirects_under_overload(self):
        result = self.make_overload("lp")
        assert result.total_redirected > 0
        assert result.scheduler_consults > 0

    def test_sharing_beats_no_sharing(self):
        none = self.make_overload("none")
        lp = self.make_overload("lp")
        assert lp.overall_mean_wait(0) < none.overall_mean_wait(0)

    def test_endpoint_also_redirects(self):
        result = self.make_overload("endpoint")
        assert result.total_redirected > 0

    def test_redirect_cost_delays_service(self):
        cheap = self.make_overload("lp", redirect_cost=0.0)
        costly = self.make_overload("lp", redirect_cost=30.0)
        assert costly.overall_mean_wait(0) > cheap.overall_mean_wait(0)

    def test_requests_redirected_at_most_once(self):
        """The burst overloads the donor too, so it consults in turn; a
        request it received must stay there rather than bounce back."""
        sim = self.overload("lp")
        hops = []
        served = sim._on_served

        def record_hops(item, start):
            hops.append(item.hops)
            served(item, start)

        sim._on_served = record_hops
        result = sim.run()
        assert result.total_redirected > 0
        assert max(hops) == 1

    def test_redirected_requests_counted_at_origin(self):
        result = self.make_overload("lp")
        # proxy 1 only generated one request of its own
        assert int(result.waits_by_proxy[1].counts().sum()) == 1

    def test_warmup_redirects_not_counted(self):
        """Redirects are tallied with the waits they are divided by: the
        measured day's requests, keyed by arrival, warm-up day excluded."""
        cfg = SimulationConfig.scaled(
            400, gap=3600.0, scheme="endpoint", warmup_days=1, seed=0
        )
        result = run_simulation(cfg, complete_structure(10, share=0.1))
        assert result.redirected_wait_stats.count > 0
        assert result.total_redirected == result.redirected_wait_stats.count
        assert int(result.redirects.counts().sum()) == result.total_redirected


class TestPolicyWiring:
    def test_lp_scheme_requires_system(self):
        with pytest.raises(SimulationError, match="needs an agreement system"):
            run_simulation(tiny_config(scheme="lp"))

    def test_system_size_must_match(self):
        with pytest.raises(SimulationError, match="principals"):
            run_simulation(tiny_config(scheme="lp"), complete_structure(5, 0.1))

    def test_summary_keys(self):
        result = run_simulation(tiny_config())
        summary = result.summary()
        for key in ("total_requests", "mean_wait", "worst_case_wait_isp0",
                    "redirect_fraction"):
            assert key in summary
