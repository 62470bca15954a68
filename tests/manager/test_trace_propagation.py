"""Acceptance: one allocation, one span tree, one explainable decision.

A ManagerPolicy consultation on the fig05 10-proxy structure crosses the
bridge, the transport, the GRM, the topology cache, and the LP solver.
With tracing enabled all of those spans must land in a *single* causal
tree rooted at the request — that is the point of carrying trace context
on messages — and the flight recorder must be able to reconstruct the
decision (donor split summing to the granted amount) afterwards.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.agreements import complete_structure
from repro.obs.events import read_trace
from repro.obs.trace_tools import breakdown, build_trees
from repro.proxysim.manager_bridge import ManagerPolicy


@pytest.fixture
def traced(tmp_path):
    path = tmp_path / "trace.jsonl"
    observer = obs.enable(trace_path=path)
    yield observer, path
    obs.disable()


def _plan_once(requester=0, excess=5.0):
    system = complete_structure(10, share=0.1)
    policy = ManagerPolicy(system)
    avail = np.full(10, 50.0)
    avail[requester] = 0.0
    take = policy.plan(requester, excess, avail)
    return policy, take


def test_allocation_forms_single_span_tree(traced):
    observer, path = traced
    _plan_once()
    obs.disable()

    trees = build_trees(read_trace(path))
    trees.pop("(untraced)", None)
    assert len(trees) == 1, f"expected one trace, got {list(trees)}"
    (roots,) = trees.values()
    assert len(roots) == 1, "all spans must hang off one root"
    root = roots[0]
    assert root.name == "manager.plan"

    names = [node.name for node in root.walk()]
    assert "transport.send" in names
    assert any(name.startswith("topology.") for name in names), names
    assert "lp.solve" in names

    # The transport hop is the request's parent edge: lp.solve sits
    # strictly below transport.send, not beside it.
    depth = {node.span_id: node for node in root.walk()}
    lp_nodes = [n for n in root.walk() if n.name == "lp.solve"]
    for node in lp_nodes:
        ancestors = set()
        cursor = node.record.get("parent")
        while cursor in depth:
            ancestors.add(depth[cursor].name)
            cursor = depth[cursor].record.get("parent")
        assert "transport.send" in ancestors

    # Latency attribution covers the request: every category is
    # non-negative and the LP actually shows up.
    parts = breakdown(roots)
    assert parts.get("lp", 0.0) > 0.0
    assert all(v >= 0.0 for v in parts.values())


def test_explain_donor_split_sums_to_granted(traced):
    observer, _ = traced
    policy, take = _plan_once(requester=0, excess=5.0)

    assert policy.last_request_id is not None
    record = obs.explain(policy.last_request_id)
    assert record is not None
    assert record.outcome == "granted"
    assert record.requestor == policy.principals[0]
    assert record.bank_version == policy.bank.version
    assert record.lp_backend is not None
    # The one LP entry point records the solve in the library's own terms.
    assert record.lp_status == "optimal"
    assert isinstance(record.lp_iterations, int)

    split_total = sum(qty for _, qty in record.takes)
    assert split_total == pytest.approx(record.granted, rel=1e-9)
    # ... and the policy's plan moved exactly what the GRM granted.
    assert float(take[1:].sum()) == pytest.approx(record.granted, rel=1e-9)
    assert record.trace_id is not None


def test_denial_recorded_with_reason(traced):
    system = complete_structure(4, share=0.1)
    policy = ManagerPolicy(system)
    avail = np.zeros(4)  # nobody has anything to give
    take = policy.plan(0, 5.0, avail)
    assert float(take[0]) == pytest.approx(5.0)  # everything stayed local

    record = obs.explain(policy.last_request_id)
    assert record is not None
    assert record.outcome == "denied"
    assert record.reason
