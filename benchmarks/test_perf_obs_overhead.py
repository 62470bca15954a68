"""Observability overhead on the GRM message path (allocations/sec).

Drives :class:`~repro.proxysim.manager_bridge.ManagerPolicy` (the GRM
message path perfbench's ``grm_steady`` workload measures) on the
10-proxy complete structure under three observer configurations and
records the throughput ratios to ``benchmarks/BENCH_obs_overhead.json``:

- ``off`` — the default :class:`~repro.obs.null.NullObserver`; this is
  the hot-path cost everyone pays, so it must stay within noise of the
  uninstrumented baseline;
- ``metrics`` — ``obs.enable()`` with no trace file (in-memory records,
  counters/histograms live);
- ``sampled`` — ``obs.enable(trace_path=..., sample=0.01)`` — full
  tracing plus the flight recorder with 1% head-based sampling, the
  recommended production configuration.

Environment knobs:

- ``REPRO_BENCH_SMOKE=1`` — tiny iteration count, no JSON append, no
  ratio assertions.  CI uses this to guard import/runtime breakage of
  all three observer modes without depending on runner timing.
"""

import json
import os
import tempfile
import time

import numpy as np

import repro.obs as obs
from repro.agreements import complete_structure
from repro.proxysim.manager_bridge import ManagerPolicy

BENCH_PATH = os.path.join(os.path.dirname(__file__), "BENCH_obs_overhead.json")
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
N_WARMUP = 1 if SMOKE else 20
N_PLANS = 5 if SMOKE else 200
#: sampled tracing may cost at most this factor vs. the observer being off
MAX_SAMPLED_SLOWDOWN = 1.5
#: metrics without a trace file may cost at most this factor vs. off
MAX_METRICS_SLOWDOWN = 2.5


def _drive(policy, n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        avail = rng.uniform(0.0, 100.0, size=len(policy.principals))
        req = int(rng.integers(0, len(policy.principals)))
        avail[req] = 0.0
        policy.plan(req, float(rng.uniform(1.0, 20.0)), avail)


def _measure() -> float:
    """Allocations/sec of a fresh ManagerPolicy under the current observer."""
    system = complete_structure(10, share=0.1)
    policy = ManagerPolicy(system)
    _drive(policy, N_WARMUP, seed=42)
    start = time.perf_counter()
    _drive(policy, N_PLANS, seed=7)
    return N_PLANS / (time.perf_counter() - start)


def test_obs_overhead():
    obs.disable()
    try:
        ops_off = _measure()

        obs.enable()
        ops_metrics = _measure()
        obs.disable()

        with tempfile.TemporaryDirectory() as tmp:
            trace_path = os.path.join(tmp, "bench-trace.jsonl")
            obs.enable(trace_path=trace_path, sample=0.01)
            ops_sampled = _measure()
            obs.disable()
            trace_bytes = os.path.getsize(trace_path)
    finally:
        obs.disable()

    if SMOKE:
        # Smoke mode guards that all three modes still run end to end;
        # the iteration count is too small for the ratios to mean much.
        assert ops_off > 0 and ops_metrics > 0 and ops_sampled > 0
        return

    metrics_ratio = ops_off / ops_metrics
    sampled_ratio = ops_off / ops_sampled

    with open(BENCH_PATH) as fh:
        record = json.load(fh)
    record["entries"].append(
        {
            "label": "run",
            "plans": N_PLANS,
            "off_allocations_per_sec": round(ops_off, 1),
            "metrics_allocations_per_sec": round(ops_metrics, 1),
            "sampled_allocations_per_sec": round(ops_sampled, 1),
            "metrics_slowdown": round(metrics_ratio, 3),
            "sampled_slowdown": round(sampled_ratio, 3),
            "sampled_trace_bytes": trace_bytes,
        }
    )
    with open(BENCH_PATH, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    assert sampled_ratio <= MAX_SAMPLED_SLOWDOWN, (
        f"1% sampled tracing costs {sampled_ratio:.2f}x vs. observer off "
        f"(limit {MAX_SAMPLED_SLOWDOWN}x)"
    )
    assert metrics_ratio <= MAX_METRICS_SLOWDOWN, (
        f"metrics-only observer costs {metrics_ratio:.2f}x vs. off "
        f"(limit {MAX_METRICS_SLOWDOWN}x)"
    )
