"""Seeded simulations replay bit for bit, whatever the ambient state.

The figures rest on seeded runs: the workload streams come from the
config's seed and simulated time from the DES clock.  This runs one
Figure-6 style day through the GRM/LRM manager path twice in one process
and perturbs everything a run must not read between the two: the global
``random`` and legacy ``numpy.random`` states are reseeded, and the wall
clock jumps forward.  A result that depends on the wall clock or on
unseeded or global randomness anywhere in the DES, workload, GRM, LP or
bank code shows up as a difference between the two runs.
"""

import random
import time

import numpy as np

from repro.agreements import complete_structure
from repro.proxysim import ProxySimulation, SimulationConfig
from repro.proxysim.manager_bridge import ManagerPolicy
from repro.workload import generate_streams

CONFIG = SimulationConfig.scaled(
    400, gap=3600.0, scheme="lp", epoch=600.0, seed=3, warmup_days=0, measure_days=1
)


def _one_day():
    cfg = CONFIG
    streams = generate_streams(
        cfg.n_proxies,
        cfg.base_profile(),
        cfg.gap,
        sizes=cfg.sizes,
        horizon=cfg.horizon,
        seed=cfg.seed,
    )
    system = complete_structure(cfg.n_proxies, share=0.05)
    sim = ProxySimulation(cfg, system, streams=streams)
    policy = sim.policy = ManagerPolicy(system)
    result = sim.run()
    return (
        [(s.arrivals.tobytes(), s.lengths.tobytes(), s.origins.tobytes()) for s in streams],
        result.total_requests,
        result.total_redirected,
        result.scheduler_consults,
        policy.messages,
        result.table().tobytes(),
    )


def test_day_replays_under_perturbed_ambient_state(monkeypatch):
    random.seed(1)
    np.random.seed(1)
    first = _one_day()
    assert first[1] > 0 and first[2] > 0 and first[3] > 0

    random.seed(2)
    np.random.seed(2)
    wall = time.time
    monkeypatch.setattr(time, "time", lambda: wall() + 1e7)
    second = _one_day()

    assert second == first
