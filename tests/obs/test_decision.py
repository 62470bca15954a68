"""Unit tests for the allocation flight recorder."""

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.agreements import complete_structure
from repro.economy import Bank
from repro.manager import (
    AllocationRequestMsg,
    AvailabilityBatch,
    GlobalResourceManager,
    InProcessTransport,
)
from repro.proxysim.redirect import LPPolicy
from repro.obs.decision import (
    NULL_DECISION,
    DecisionRecord,
    FlightRecorder,
    current_decision,
    next_request_id,
)


class TestDecisionRecord:
    def test_from_fields_routes_unknown_keys_to_extra(self):
        rec = DecisionRecord.from_fields(
            {"request_id": 7, "outcome": "granted", "multigrid_rounds": 3}
        )
        assert rec.request_id == 7
        assert rec.extra == {"multigrid_rounds": 3}
        assert rec.to_dict()["multigrid_rounds"] == 3

    def test_to_dict_omits_empty_optionals(self):
        d = DecisionRecord(request_id=1).to_dict()
        assert d["kind"] == "decision"
        assert "reason" not in d and "lp_backend" not in d
        d2 = DecisionRecord(request_id=1, reason="no capacity").to_dict()
        assert d2["reason"] == "no capacity"


class TestFlightRecorder:
    def test_ring_bound_evicts_oldest(self):
        fr = FlightRecorder(capacity=4)
        for i in range(6):
            fr.record(DecisionRecord(request_id=i))
        assert len(fr) == 4
        assert fr.explain(0) is None and fr.explain(1) is None
        assert fr.explain(2) is not None and fr.explain(5) is not None

    def test_explain_returns_most_recent(self):
        fr = FlightRecorder()
        fr.record(DecisionRecord(request_id=9, outcome="denied"))
        fr.record(DecisionRecord(request_id=9, outcome="granted"))
        assert fr.explain(9).outcome == "granted"


class TestDecisionBuilder:
    def test_nested_layers_attach_via_current_decision(self, observer):
        assert current_decision() is None
        with observer.decision(request_id=5, requestor="p0") as dec:
            assert current_decision() is dec
            # ...deep in the allocator:
            current_decision().set(lp_backend="scipy", lp_iterations=4)
            dec.set(outcome="granted", granted=1.5)
        assert current_decision() is None
        rec = observer.explain(5)
        assert rec.lp_backend == "scipy"
        assert rec.lp_iterations == 4
        assert rec.outcome == "granted"

    def test_exception_marks_error_outcome(self, observer):
        with pytest.raises(ValueError):
            with observer.decision(request_id=6, requestor="p1"):
                raise ValueError("solver exploded")
        rec = observer.explain(6)
        assert rec.outcome == "error"
        assert "solver exploded" in rec.reason

    def test_builders_nest(self, observer):
        with observer.decision(request_id=7) as outer:
            with observer.decision(request_id=8) as inner:
                assert current_decision() is inner
            assert current_decision() is outer
        assert observer.explain(7) is not None
        assert observer.explain(8) is not None

    def test_counter_tracks_outcomes(self, observer):
        with observer.decision(request_id=10) as dec:
            dec.set(outcome="granted")
        with observer.decision(request_id=11) as dec:
            dec.set(outcome="denied")
        counters = observer.registry.snapshot()["counters"]["decision.recorded"]
        assert counters["outcome=granted"] == 1
        assert counters["outcome=denied"] == 1

    def test_decision_exported_to_trace(self, traced_observer):
        observer, path = traced_observer
        with observer.decision(request_id=12, requestor="p2") as dec:
            dec.set(outcome="granted", granted=3.0, takes=(("p3", 3.0),))
        obs.disable()
        records = [json.loads(x) for x in path.read_text().splitlines()]
        decisions = [r for r in records if r.get("kind") == "decision"]
        assert len(decisions) == 1
        assert decisions[0]["request_id"] == 12
        assert decisions[0]["takes"] == [["p3", 3.0]]

    def test_sampled_out_decision_kept_in_ring_not_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        try:
            observer = obs.enable(trace_path=path, sample=0.0)
            with observer.root_span("request"):
                with observer.decision(request_id=13) as dec:
                    dec.set(outcome="granted")
            assert observer.explain(13) is not None  # ring: always on
            obs.disable()
            kinds = [
                json.loads(x).get("kind") for x in path.read_text().splitlines()
            ]
            assert "decision" not in kinds and "span" not in kinds
        finally:
            obs.disable()


class TestAllocationDecisions:
    """Both decision openers get their grant fields from the allocation
    epilogue, so the records carry the same evidence."""

    def test_grm_grant_record(self, observer):
        transport, bank = InProcessTransport(), Bank()
        grm = GlobalResourceManager("grm", bank)
        grm.attach(transport)
        names = ["p0", "p1", "p2"]
        for p in names:
            grm.register_principal(p)
        for p in names:
            for q in names:
                if p != q:
                    bank.issue_relative_ticket(p, q, 20)
        batch = AvailabilityBatch(
            sender="lrm", reports=(("p0", 0.0), ("p1", 5.0), ("p2", 8.0))
        )
        transport.send("grm", batch)
        msg = AllocationRequestMsg(sender="p0", principal="p0", amount=2.0)
        grant = transport.send("grm", msg)

        record = observer.explain(msg.msg_id)
        assert set(record.to_dict()) == {
            "kind", "request_id", "requestor", "resource_type", "amount",
            "outcome", "granted", "takes", "theta", "grm", "bank_version",
            "lp_backend", "lp_status", "lp_iterations", "availability_before",
            "capacities_before", "capacities_after", "trace_id", "span_id",
        }
        assert record.outcome == "granted"
        assert record.takes == grant.takes
        assert record.theta == grant.theta
        assert record.granted == pytest.approx(2.0)
        assert record.availability_before == {"p0": 0.0, "p1": 5.0, "p2": 8.0}
        assert record.capacities_after == pytest.approx(
            {"p0": 2.64, "p1": 5.68, "p2": 7.96}
        )

    def test_lp_policy_record_gains_capacities_after(self, observer):
        policy = LPPolicy(complete_structure(3, share=0.2))
        avail = np.array([0.0, 5.0, 5.0])
        take = policy.plan(0, 0.5, avail)

        (record,) = observer.decisions.records()
        assert record.request_id < 0
        assert record.extra == {"scheme": "lp-direct"}
        assert record.outcome == "granted"
        assert record.granted == pytest.approx(0.5)
        assert dict(record.takes) == pytest.approx({"isp1": take[1], "isp2": take[2]})
        after = policy.topology.capacities(avail - take)
        assert record.capacities_after == pytest.approx(
            dict(zip(["isp0", "isp1", "isp2"], after.tolist()))
        )


class TestDisabledPath:
    def test_null_observer_decision_is_null(self):
        obs.disable()
        null = obs.get_observer()
        with null.decision(request_id=1) as dec:
            assert dec is NULL_DECISION
            dec.set(outcome="granted")  # no-op, must not raise
        assert null.explain(1) is None

    def test_synthetic_ids_negative_and_unique(self):
        a, b = next_request_id(), next_request_id()
        assert a < 0 and b < 0 and a != b
