"""Span nesting, timing, and the observer lifecycle."""

import numpy as np
import pytest

import repro.obs as obs
from repro.errors import ReproError
from repro.obs.events import read_trace
from repro.obs.tracing import sampled_in


class TestSpanNesting:
    def test_nested_paths(self, observer):
        with observer.span("outer"):
            with observer.span("inner") as inner:
                assert inner.path == "outer/inner"
                with observer.span("leaf") as leaf:
                    assert leaf.path == "outer/inner/leaf"

    def test_stack_unwinds(self, observer):
        with observer.span("a"):
            assert observer.tracer.depth == 1
        assert observer.tracer.depth == 0
        assert observer.tracer.current is None

    def test_duration_measured(self, observer):
        with observer.span("timed") as sp:
            pass
        assert sp.duration >= 0.0
        h = observer.registry.get_histogram("span.timed")
        assert h is not None and h.count == 1

    def test_exception_tagged_and_stack_unwound(self, observer):
        with pytest.raises(ValueError):
            with observer.span("boom") as sp:
                raise ValueError("x")
        assert sp.attrs["error"] == "ValueError"
        assert observer.tracer.depth == 0

    def test_set_attaches_attributes(self, observer):
        with observer.span("s", a=1) as sp:
            sp.set(b=2)
        assert sp.attrs == {"a": 1, "b": 2}


class TestTraceIds:
    def test_child_shares_trace_and_links_parent(self, observer):
        with observer.span("root") as root:
            with observer.span("child") as child:
                with observer.span("grandchild") as grandchild:
                    pass
        assert root.parent_id is None
        assert child.trace_id == grandchild.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert len({root.span_id, child.span_id, grandchild.span_id}) == 3

    def test_span_with_no_span_open_starts_a_trace(self, observer):
        with observer.span("first") as first:
            pass
        with observer.span("second") as second:
            pass
        assert first.trace_id != second.trace_id
        assert second.parent_id is None

    def test_root_span_starts_a_trace_while_nested(self, observer):
        with observer.span("run") as run:
            with observer.root_span("consult") as consult:
                with observer.span("inner") as inner:
                    pass
        assert consult.trace_id != run.trace_id
        assert consult.parent_id is None
        assert consult.path == "run/consult"
        assert inner.trace_id == consult.trace_id
        assert inner.parent_id == consult.span_id


def _root_trace_ids(observer, n):
    ids = []
    for _ in range(n):
        with observer.root_span("request") as sp:
            ids.append(sp.trace_id)
    return ids


class TestSampling:
    def test_extremes(self):
        assert sampled_in("anything", 1.0) is True
        assert sampled_in("anything", 0.0) is False

    def test_deterministic_per_trace_id(self, observer):
        for tid in _root_trace_ids(observer, 50):
            first = sampled_in(tid, 0.3)
            assert all(sampled_in(tid, 0.3) == first for _ in range(5))

    def test_rate_monotonic(self, observer):
        # A trace sampled in at a low rate stays in at any higher rate
        # (the decision is a threshold on one hash value).
        for tid in _root_trace_ids(observer, 200):
            if sampled_in(tid, 0.05):
                assert sampled_in(tid, 0.5)
            if not sampled_in(tid, 0.5):
                assert not sampled_in(tid, 0.05)

    def test_root_span_stamps_decision(self):
        for rate, expected in ((1.0, True), (0.0, False)):
            try:
                observer = obs.enable(sample=rate)
                with observer.root_span("request") as root:
                    with observer.span("child") as child:
                        pass
            finally:
                obs.disable()
            assert root.sampled is expected
            assert child.sampled is expected

    def test_rough_fraction(self, observer):
        hits = sum(sampled_in(tid, 0.25) for tid in _root_trace_ids(observer, 2000))
        assert 0.15 < hits / 2000 < 0.35

    def test_sampled_out_root_writes_nothing_but_records_decision(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        try:
            observer = obs.enable(trace_path=path, sample=0.0)
            with observer.root_span("request") as root:
                with observer.span("child"):
                    with observer.decision(request_id=7, requestor="p0") as dec:
                        dec.set(outcome="granted", granted=1.0)
            record = observer.explain(7)
        finally:
            obs.disable()

        assert not root.sampled
        assert {r["kind"] for r in read_trace(path)} == {"snapshot"}
        # the flight recorder keeps the decision, tied to the dropped trace
        assert record is not None and record.outcome == "granted"
        assert record.trace_id == root.trace_id
        registry = observer.registry
        assert registry.counter_value("trace.sampled_out_spans") == 2
        assert registry.counter_value("decision.recorded", outcome="granted") == 1


class TestGlobalLifecycle:
    def test_enable_disable_swaps_observer(self):
        assert not obs.get_observer().enabled
        ob = obs.enable()
        try:
            assert obs.get_observer() is ob
            assert ob.enabled
        finally:
            obs.disable()
        assert not obs.get_observer().enabled

    def test_report_when_disabled(self):
        assert "disabled" in obs.report()

    def test_report_when_enabled(self):
        obs.enable().counter("x")
        try:
            assert "x" in obs.report()
        finally:
            obs.disable()


class TestInstrumentedStack:
    """Spot-checks that real call sites hit the registry when enabled."""

    def test_lp_solve_records_span_and_counter(self, observer):
        from repro.lp import solve

        # min -x st x <= 3, 0 <= x <= 4
        problem = (
            np.array([-1.0]), np.array([[1.0]]), np.array([3.0]),
            np.zeros((0, 1)), np.zeros(0), [(0.0, 4.0)],
        )
        for backend in ("scipy", "simplex"):
            solve(*problem, backend=backend, model="t")
            assert observer.registry.counter_value("lp.solves", backend=backend) == 1
        assert observer.registry.get_histogram("span.lp.solve").count == 2

    def test_allocation_records_theta(self, observer):
        from repro.agreements import complete_structure
        from repro.allocation import allocate_lp

        system = complete_structure(4, share=0.2)
        allocate_lp(system, system.principals[0], 1.0)
        assert observer.registry.get_histogram("span.allocation.request").count == 1
        assert observer.registry.get_histogram("allocation.theta").count == 1

    def test_denied_request_span_carries_available(self, traced_observer):
        from repro.agreements import complete_structure
        from repro.allocation import allocate_lp
        from repro.errors import InsufficientResourcesError

        observer, path = traced_observer
        system = complete_structure(3, share=0.1)
        principal = system.principals[0]
        cap = system.capacity_of(principal)
        with pytest.raises(InsufficientResourcesError):
            allocate_lp(system, principal, cap + 5.0)
        obs.disable()
        (span,) = [
            r for r in read_trace(path)
            if r.get("kind") == "span" and r["name"] == "allocation.request"
        ]
        assert span["attrs"]["error"] == "InsufficientResourcesError"
        assert span["attrs"]["available"] == pytest.approx(cap)

    def test_flow_dp_reports_its_size(self, traced_observer):
        from repro.agreements.flow import transitive_coefficients
        from repro.agreements.structures import complete_structure
        from repro.obs.events import read_trace
        from repro.obs.report import render_trace

        observer, path = traced_observer
        transitive_coefficients(complete_structure(5, share=0.2).S)
        # complete n=5: 4 reachable per source; a layer per non-empty
        # subset of them, 4 last nodes each, for each of 5 sources
        states = 5 * 4 * (2**4 - 1)
        h = observer.registry.get_histogram("flow.dp_states", reachable=4)
        assert h is not None and h.count == 1 and h.total == states
        obs.disable()
        (span,) = [
            r
            for r in read_trace(path)
            if r.get("kind") == "span" and r["name"] == "flow.coefficients"
        ]
        assert span["attrs"]["reachable"] == 4
        assert span["attrs"]["states"] == states
        assert "flow.dp_states" in render_trace(path)

    def test_transport_per_endpoint_counters(self, observer):
        from repro.manager.messages import Message
        from repro.manager.transport import InProcessTransport

        t = InProcessTransport()
        t.register("a", lambda m: None)
        t.send("a", Message(sender="x"))
        t.send("a", Message(sender="x"))
        assert observer.registry.counter_value(
            "transport.sent", endpoint="a", type="Message") == 2

    def test_unknown_endpoint_lists_known(self):
        from repro.manager.messages import Message
        from repro.manager.transport import InProcessTransport

        t = InProcessTransport()
        t.register("grm", lambda m: None)
        t.register("isp0", lambda m: None)
        with pytest.raises(ReproError, match=r"grm.*isp0|known endpoints"):
            t.send("ghost", Message(sender="x"))
        with pytest.raises(ReproError, match="<none registered>"):
            InProcessTransport().send("ghost", Message(sender="x"))
