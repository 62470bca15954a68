"""Figure 12: impact of redirection cost.

"Here we consider the impact on waiting time when each redirected request
must incur a fixed overhead that is either 0.1 seconds or 0.2 seconds.
These costs are approximately the same as or double the average
processing time...  the added cost has negligible impact on the average
waiting time.  This is because only a small number of requests (less than
1.5%) are redirected.  Even at peak time, this amount is less than 6%."

Costs are expressed as multiples of the mean service time so the
experiment is scale-invariant (the paper's 0.1 s ~ its 0.112 s mean
service).  Expected shape: the mean-wait curves for cost 0x / 1x / 2x lie
within a small factor of one another, far below the no-sharing baseline.
"""

from ..agreements import complete_structure
from ..proxysim import SimulationConfig
from .common import Figure

__all__ = ["run", "COST_MULTIPLIERS", "FIGURE"]

COST_MULTIPLIERS = (0.0, 1.0, 2.0)


def _grid(scale, cost_multipliers=COST_MULTIPLIERS):
    probe = SimulationConfig.scaled(scale)
    mean_service = probe.service.mean_service(probe.sizes)
    return [
        (
            {"cost_multiplier": m, "redirect_cost_s": round(m * mean_service, 3)},
            {"scheme": "lp", "redirect_cost": m * mean_service},
        )
        for m in map(float, cost_multipliers)
    ]


FIGURE = Figure(
    name="fig12",
    description="waiting time vs redirection cost (complete graph)",
    structure=lambda label: complete_structure(10, share=0.1),
    grid=_grid,
    stats={
        "mean_wait_s": lambda day, _: day.overall_mean_wait(0),
        "worst_slot_wait_s": lambda day, _: day.worst_case_wait(0),
        "redirected_frac": lambda day, _: day.redirect_fraction(),
        "peak_redirected_frac": lambda day, _: day.peak_redirect_fraction(),
        # "Although the waiting time of these requests has significant
        # penalty ... the redirection pays off."
        "mean_wait_redirected_s": lambda day, _: day.split_mean_wait()[1],
    },
    notes=(
        "Paper: costs comparable to the mean service time have "
        "negligible impact because few requests are redirected.  "
        "Expected here: mean waits within a small factor across costs."
    ),
)
run = FIGURE.run  # run(scale=25.0, seeds=(0,), cost_multipliers=COST_MULTIPLIERS): this alone
