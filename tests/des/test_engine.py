"""Tests for the fixed-step simulation clock."""

import pytest

import repro.obs as obs
from repro.agreements import complete_structure
from repro.des import Engine
from repro.errors import SimulationError
from repro.obs.events import read_trace
from repro.proxysim import ProxySimulation, SimulationConfig


class TestTicks:
    def test_epoch_dividing_until(self):
        seen = []
        eng = Engine(2.0)
        eng.run(10.0, seen.append)
        assert seen == [2.0, 4.0, 6.0, 8.0, 10.0]
        assert eng.events_processed == 5

    def test_epoch_not_dividing_until(self):
        seen = []
        Engine(3.0).run(10.0, seen.append)
        assert seen == [3.0, 6.0, 9.0]

    def test_times_are_repeated_sums(self):
        """Ten additions of 0.1 give 0.9999999999999999, which fires."""
        seen = []
        eng = Engine(0.1)
        eng.run(1.0, seen.append)
        expected, now = [], 0.0
        for _ in range(10):
            now += 0.1
            expected.append(now)
        assert seen == expected
        assert seen[-1] == 0.9999999999999999
        assert eng.events_processed == 10

    @pytest.mark.parametrize("epoch", [0.0, -1.0, float("nan")])
    def test_non_positive_epoch_rejected(self, epoch):
        with pytest.raises(SimulationError):
            Engine(epoch)


class TestRunControl:
    def test_until_stops_before_later_events(self):
        seen = []
        Engine(1.0).run(2.5, seen.append)
        assert seen == [1.0, 2.0]

    def test_events_processed_counter(self):
        eng = Engine(1.0)
        eng.run(4.0, lambda now: None)
        eng.run(2.0, lambda now: None)
        assert eng.events_processed == 6


class TestTracing:
    def test_callback_span_nests_under_span_around_run(self):
        """Ticks fire inside run(), so a span one opens is a child of the
        span open around run() -- the proxy simulation's shape."""
        seen = []
        try:
            observer = obs.enable()

            def tick(now):
                with observer.span("work.in_tick") as sp:
                    seen.append(sp)

            with observer.span("sim.run") as run:
                Engine(1.0).run(2.0, tick)
        finally:
            obs.disable()

        assert len(seen) == 2
        for sp in seen:
            assert sp.trace_id == run.trace_id
            assert sp.parent_id == run.span_id
            assert sp.path == "sim.run/work.in_tick"
        assert run.parent_id is None

    def test_one_day_simulation_fires_1440_ticks(self, tmp_path):
        cfg = SimulationConfig.scaled(
            400, gap=3600.0, scheme="endpoint", warmup_days=0, seed=0
        )
        assert cfg.epoch == 60.0
        path = tmp_path / "trace.jsonl"
        try:
            obs.enable(trace_path=path)
            ProxySimulation(cfg, complete_structure(10, share=0.1)).run()
        finally:
            obs.disable()
        (run,) = [
            r for r in read_trace(path)
            if r.get("kind") == "span" and r["name"] == "proxysim.run"
        ]
        assert run["attrs"]["ticks"] == 1440
