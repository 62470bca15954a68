"""Tests for the discrete-event engine."""

import pytest

import repro.obs as obs
from repro.des import Engine
from repro.errors import SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        fired = []
        eng.schedule_at(5.0, lambda: fired.append("b"))
        eng.schedule_at(1.0, lambda: fired.append("a"))
        eng.schedule_at(9.0, lambda: fired.append("c"))
        eng.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        eng = Engine()
        fired = []
        for tag in "abc":
            eng.schedule_at(3.0, lambda t=tag: fired.append(t))
        eng.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        eng = Engine()
        seen = []
        eng.schedule_at(4.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [4.5]
        assert eng.now == 4.5

    def test_relative_delay(self):
        eng = Engine(start=10.0)
        seen = []
        eng.schedule(2.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [12.5]

    def test_past_scheduling_rejected(self):
        eng = Engine(start=10.0)
        with pytest.raises(SimulationError):
            eng.schedule_at(5.0, lambda: None)
        with pytest.raises(SimulationError):
            eng.schedule(-1.0, lambda: None)

    def test_events_can_schedule_events(self):
        eng = Engine()
        fired = []

        def chain(k):
            fired.append(eng.now)
            if k > 0:
                eng.schedule(1.0, lambda: chain(k - 1))

        eng.schedule_at(0.0, lambda: chain(3))
        eng.run()
        assert fired == [0.0, 1.0, 2.0, 3.0]


class TestRunControl:
    def test_until_stops_before_later_events(self):
        eng = Engine()
        fired = []
        eng.schedule_at(1.0, lambda: fired.append(1))
        eng.schedule_at(5.0, lambda: fired.append(5))
        eng.run(until=3.0)
        assert fired == [1]
        assert eng.now == 3.0  # clock advanced to the horizon
        eng.run()
        assert fired == [1, 5]

    def test_not_reentrant(self):
        eng = Engine()

        def reenter():
            eng.run()

        eng.schedule_at(1.0, reenter)
        with pytest.raises(SimulationError, match="re-entrant"):
            eng.run()

    def test_events_processed_counter(self):
        eng = Engine()
        for i in range(4):
            eng.schedule_at(float(i), lambda: None)
        eng.run()
        assert eng.events_processed == 4


class TestTracing:
    def test_callback_span_nests_under_span_around_run(self):
        """Callbacks fire inside run(), so a span one opens is a child of
        the span open around run() -- the proxy simulation's shape."""
        seen = []
        try:
            observer = obs.enable()
            eng = Engine()

            def fired():
                with observer.span("work.in_event") as sp:
                    seen.append(sp)
                if len(seen) == 1:
                    eng.schedule(1.0, fired)

            eng.schedule(1.0, fired)  # scheduled with no span open
            with observer.span("sim.run") as run:
                eng.run()
        finally:
            obs.disable()

        assert len(seen) == 2
        for sp in seen:
            assert sp.trace_id == run.trace_id
            assert sp.parent_id == run.span_id
            assert sp.path == "sim.run/work.in_event"
        assert run.parent_id is None
