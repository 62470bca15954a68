"""Ablation: donor-availability reporting — backlog-only vs projected load.

The paper says LRMs "provide resource availability information to the GRM
dynamically" without defining availability.  Two natural readings:

- backlog-only (``project_arrivals = 0``): spare capacity right now;
  opportunistic, lets a nominally busy donor absorb work during lulls —
  but also lets mid-load proxies front-run a donor's upcoming rush hour;
- full projection (``project_arrivals = 1``): reserve the donor's entire
  expected near-future load; safe but starves sharing exactly when the
  only donor rides the same rush hour (the skip-1 loop).

This bench measures both extremes (plus the 0.5 compromise) on the two
structures that stress them in opposite directions.
"""

from conftest import BENCH_SCALE, run_once
from repro.agreements import complete_structure, loop_structure
from repro.proxysim import SimulationConfig, run_simulation

COMPLETE = complete_structure(10, share=0.1)
LOOP1 = loop_structure(10, share=0.8, skip=1)


def sweep(weights=(0.0, 0.5, 1.0)):
    rows = []
    for w in weights:
        cfg = SimulationConfig.scaled(BENCH_SCALE, scheme="lp", gap=3600.0, project_arrivals=w)
        complete = run_simulation(cfg, COMPLETE)
        loop = run_simulation(cfg.with_(level=1), LOOP1)
        rows.append(
            {
                "projection_weight": w,
                "complete_worst_s": complete.worst_case_wait(0),
                "loop1_worst_s": loop.worst_case_wait_over(range(1, 10)),
            }
        )
    return rows


def test_projection_weight(benchmark):
    rows = run_once(benchmark, sweep)
    for row in rows:
        print(row)
    by_w = {r["projection_weight"]: r for r in rows}

    # Full projection must visibly hurt the skip-1 loop (its only donor is
    # always "projected busy"), relative to backlog-only reporting.
    assert by_w[1.0]["loop1_worst_s"] > 1.5 * by_w[0.0]["loop1_worst_s"]

    # On the complete graph all settings stay in the same ballpark — there
    # is always some donor with genuine spare capacity.
    worst = max(r["complete_worst_s"] for r in rows)
    best = min(r["complete_worst_s"] for r in rows)
    assert worst < 4.0 * best
