"""Ablation: sensitivity to the scheduler-consultation threshold.

The paper consults the global scheduler "when the resource requirements
of requests queued up at a proxy's front-end exceed a threshold" but does
not study the threshold itself.  This bench sweeps it: too high a
threshold lets queues sit deep before anything moves (waits track the
threshold); the benefit of sharing is robust across reasonable settings.
"""

import numpy as np

from conftest import BENCH_SCALE, run_once
from repro.agreements import complete_structure
from repro.proxysim import SimulationConfig, run_simulation

SYSTEM = complete_structure(10, share=0.1)


def sweep(thresholds=(5.0, 15.0, 40.0, 120.0)):
    rows = []
    for thr in thresholds:
        cfg = SimulationConfig.scaled(BENCH_SCALE, scheme="lp", gap=3600.0, threshold=thr)
        res = run_simulation(cfg, SYSTEM)
        rows.append(
            {
                "threshold_s": thr,
                "worst_slot_wait_s": res.worst_case_wait(0),
                "mean_wait_s": res.overall_mean_wait(0),
                "consults": res.scheduler_consults,
            }
        )
    return rows


def test_threshold_sensitivity(benchmark):
    rows = run_once(benchmark, sweep)
    for row in rows:
        print(row)

    worsts = np.array([r["worst_slot_wait_s"] for r in rows])
    consults = np.array([r["consults"] for r in rows])

    # Higher thresholds consult less.
    assert consults[0] > consults[-1]

    # Every setting still beats the ~1000s-scale no-sharing baseline by a lot.
    assert worsts.max() < 400.0

    # A very lax threshold costs waiting time relative to an eager one.
    assert rows[-1]["mean_wait_s"] >= rows[0]["mean_wait_s"] * 0.8
