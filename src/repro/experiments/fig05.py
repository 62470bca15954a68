"""Figure 5: load and waiting time over the day, *without* resource sharing.

The paper's solid line is the request count per 10-minute slot (peaking
around midnight, bottoming out in the early morning); the dotted line is
the average waiting time per slot, which peaks with the load at ~250 s.

We reproduce both series for one ISP with redirection disabled.  The
expected shape: the wait curve tracks the load curve with a lag, and the
peak wait is two to four orders of magnitude above the trough wait.
"""

from __future__ import annotations

from ..proxysim import SimulationConfig, run_simulation
from .common import ExperimentResult

__all__ = ["run"]


def run(scale: float = 25.0, seed: int = 0, **overrides) -> ExperimentResult:
    cfg = SimulationConfig.scaled(scale, scheme="none", seed=seed, **overrides)
    result = run_simulation(cfg)

    counts = result.request_count_series(0)
    waits = result.mean_wait_series(0)
    slots = result.slot_times()

    peak_slot = int(waits.argmax())
    load_peak_slot = int(counts.argmax())
    res = ExperimentResult(
        experiment="fig05",
        description="requests and avg waiting time per 10-min slot, no sharing",
        rows=[
            {
                "metric": "peak_mean_wait_s",
                "value": float(waits.max()),
                "at_hour": round(slots[peak_slot] / 3600.0, 1),
            },
            {
                "metric": "trough_mean_wait_s",
                "value": float(waits[counts > 0].min()),
                "at_hour": round(float(slots[counts > 0][waits[counts > 0].argmin()]) / 3600.0, 1),
            },
            {
                "metric": "peak_requests_per_slot",
                "value": float(counts.max()),
                "at_hour": round(slots[load_peak_slot] / 3600.0, 1),
            },
            {
                "metric": "total_requests",
                "value": float(result.total_requests),
                "at_hour": float("nan"),
            },
        ],
        series={
            "slot_hours": slots / 3600.0,
            "requests_per_slot": counts.astype(float),
            "mean_wait": waits,
        },
        notes=(
            "Paper: load heaviest around midnight, lightest early morning; "
            "peak waits ~250 s.  Expected here: wait curve tracks the load "
            "curve and peaks within a few hours after the load peak."
        ),
    )
    return res
