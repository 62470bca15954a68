"""The disabled (null) observer must be invisible to instrumented code."""

import dataclasses

import numpy as np

import repro.obs as obs
from repro.agreements import complete_structure
from repro.allocation import allocate_lp
from repro.des import Engine
from repro.manager.messages import Message
from repro.manager.transport import InProcessTransport
from repro.obs.null import NULL_SPAN, NullObserver


class TestNullObserver:
    def test_default_observer_is_null(self):
        ob = obs.get_observer()
        assert isinstance(ob, NullObserver)
        assert not ob.enabled

    def test_all_operations_are_noops(self):
        ob = NullObserver()
        ob.counter("c", 5, endpoint="x")
        ob.gauge("g", 1.0)
        ob.histogram("h", 2.0)
        ob.flush()
        ob.close()
        with ob.span("s", a=1) as sp:
            assert sp is NULL_SPAN
            assert sp.set(b=2) is sp

    def test_null_span_is_shared_and_stateless(self):
        ob = NullObserver()
        assert ob.span("a") is ob.span("b")
        assert not hasattr(NULL_SPAN, "__dict__")  # slots: nothing to mutate


class TestNoAttributeLeakage:
    """Instrumentation must not alter results when observability is off."""

    def test_allocation_result_fields_unchanged(self):
        assert not obs.get_observer().enabled
        system = complete_structure(4, share=0.2)
        plan = allocate_lp(system, system.principals[0], 1.0)
        field_names = {f.name for f in dataclasses.fields(plan)}
        assert field_names == {
            "request", "take", "theta", "satisfied", "new_V", "new_C",
            "scheme", "principals",
        }
        # No stray instance attributes beyond the dataclass fields.
        assert set(vars(plan)) == field_names

    def test_allocation_identical_enabled_vs_disabled(self):
        system = complete_structure(5, share=0.15)
        p = system.principals[1]
        plan_off = allocate_lp(system, p, 1.2)
        ob = obs.enable()
        try:
            plan_on = allocate_lp(system, p, 1.2)
        finally:
            obs.disable()
        assert ob.registry.get_histogram("span.allocation.request").count == 1
        np.testing.assert_allclose(plan_on.take, plan_off.take)
        assert plan_on.theta == plan_off.theta

    def test_transport_reply_passthrough(self):
        t = InProcessTransport()
        reply = Message(sender="handler")
        t.register("h", lambda m: reply)
        assert t.send("h", Message(sender="x")) is reply

    def test_engine_counts_without_observer(self):
        eng = Engine(1.0)
        eng.run(2.0, lambda now: None)
        assert eng.events_processed == 2
