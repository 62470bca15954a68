"""Figure 13: centralized LP scheduling vs end-point enforcement.

"The agreement structure is a complete graph where each ISP shares 20% of
its resources with neighbors one-hour time zone away, 10% with neighbors
two-hour time zone away, 5% with those three hours away and 3% with
further neighbors...  the linear programming scheme reduces the average
waiting time by more than 50% at traffic peak time.  This is because the
non-linear scheme tends to redistribute requests to nearby ISPs no matter
whether they are busy or not, while [the] linear programming scheme takes
both the resource availability status and sharing agreements into
account."

Scheme comparisons only discriminate in the *saturated* regime: when
donors have slack everywhere, even availability-blind placement works
(we measured an 8% gap at mean utilisation 0.62 vs 47-78% at 0.70-0.75).
``load_factor`` therefore pushes this experiment's workload deeper into
overload than the other figures' default (1.18x -> mean utilisation
~0.73); the value and its effect are recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np

from ..agreements import distance_decay_structure
from ..proxysim import SimulationConfig, run_simulation
from .common import ExperimentResult

__all__ = ["run", "SCHEMES"]

SCHEMES = ("lp", "endpoint")


def run(
    scale: float = 25.0,
    schemes=SCHEMES,
    seed: int = 0,
    load_factor: float = 1.18,
    **overrides,
) -> ExperimentResult:
    system = distance_decay_structure(10)
    rows = []
    series = {}
    peak_waits = {}
    probe = SimulationConfig.scaled(scale, **overrides)
    rpd = probe.requests_per_day * float(load_factor)
    for scheme in schemes:
        kwargs = dict(gap=3600.0, requests_per_day=rpd)
        kwargs.update(overrides)
        kwargs["scheme"] = scheme
        kwargs["seed"] = seed
        cfg = SimulationConfig.scaled(scale, **kwargs)
        result = run_simulation(cfg, system)
        waits = result.mean_wait_series(None)  # all ISPs (symmetric structure)
        rows.append(
            {
                "scheme": scheme,
                "mean_wait_s": result.overall_mean_wait(),
                "worst_slot_wait_s": float(waits.max()),
                "redirected_frac": result.redirect_fraction(),
            }
        )
        series[f"wait:{scheme}"] = waits
        series["slot_hours"] = result.slot_times() / 3600.0
        peak_waits[scheme] = float(waits.max())

    notes = "Paper: LP cuts peak-time average waiting by > 50% vs endpoint."
    if "lp" in peak_waits and "endpoint" in peak_waits and peak_waits["endpoint"] > 0:
        reduction = 1.0 - peak_waits["lp"] / peak_waits["endpoint"]
        notes += f"  Measured peak reduction: {100 * reduction:.0f}%."
    return ExperimentResult(
        experiment="fig13",
        description="LP vs endpoint enforcement (distance-decay complete graph)",
        rows=rows,
        series=series,
        notes=notes,
    )


def peak_reduction(result: ExperimentResult) -> float:
    """Fraction by which LP reduces the endpoint scheme's peak-slot wait."""
    lp = result.row_by(scheme="lp")["worst_slot_wait_s"]
    ep = result.row_by(scheme="endpoint")["worst_slot_wait_s"]
    return 1.0 - lp / ep if ep > 0 else float("nan")
