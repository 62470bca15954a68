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
``LOAD_FACTOR`` therefore pushes this experiment's workload deeper into
overload than the other figures' default (1.18x -> mean utilisation
~0.73); the value and its effect are recorded in EXPERIMENTS.md.
"""

import math

from ..agreements import distance_decay_structure
from ..proxysim import SimulationConfig
from .common import ExperimentResult, Figure

__all__ = ["run", "SCHEMES", "LOAD_FACTOR", "FIGURE", "peak_reduction"]

SCHEMES = ("lp", "endpoint")

#: Request volume relative to the other figures' (mean utilisation ~0.73):
#: the schemes only separate in the saturated regime (module docstring).
LOAD_FACTOR = 1.18


def _grid(scale):
    rpd = SimulationConfig.scaled(scale).requests_per_day * LOAD_FACTOR
    return [({"scheme": s}, {"scheme": s, "requests_per_day": rpd}) for s in SCHEMES]


def _series(rows, days):
    lp, endpoint = (day.mean_wait_series(None) for day in days)  # all ISPs: a symmetric structure
    return {"wait:lp": lp, "slot_hours": days[0].slot_times() / 3600.0, "wait:endpoint": endpoint}


def peak_reduction(result: ExperimentResult) -> float:
    """Fraction by which LP reduces the endpoint scheme's peak-slot wait."""
    lp, ep = (result.row_by(scheme=s)["worst_slot_wait_s"] for s in SCHEMES)
    return 1.0 - lp / ep if ep > 0 else float("nan")


def _notes(rows):
    notes = "Paper: LP cuts peak-time average waiting by > 50% vs endpoint."
    reduction = peak_reduction(ExperimentResult("fig13", "", rows))
    if not math.isnan(reduction):
        notes += f"  Measured peak reduction: {100 * reduction:.0f}%."
    return notes


FIGURE = Figure(
    name="fig13",
    description="LP vs endpoint enforcement (distance-decay complete graph)",
    structure=lambda label: distance_decay_structure(10),
    grid=_grid,
    stats={
        "mean_wait_s": lambda day, _: day.overall_mean_wait(),
        "worst_slot_wait_s": lambda day, _: day.worst_case_wait(None),
        "redirected_frac": lambda day, _: day.redirect_fraction(),
    },
    series=_series,
    notes=_notes,
)
run = FIGURE.run  # run(scale=25.0, seeds=(0,)): this figure alone
