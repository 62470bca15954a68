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

from __future__ import annotations

from ..agreements import complete_structure
from ..proxysim import SimulationConfig, run_simulation
from .common import ExperimentResult

__all__ = ["run", "COST_MULTIPLIERS"]

COST_MULTIPLIERS = (0.0, 1.0, 2.0)


def run(
    scale: float = 25.0,
    cost_multipliers=COST_MULTIPLIERS,
    seed: int = 0,
    **overrides,
) -> ExperimentResult:
    system = complete_structure(10, share=0.1)
    probe = SimulationConfig.scaled(scale, seed=seed, **overrides)
    mean_service = probe.service.mean_service(probe.sizes)

    rows = []
    for mult in cost_multipliers:
        cost = float(mult) * mean_service
        cfg = SimulationConfig.scaled(
            scale, scheme="lp", gap=3600.0, redirect_cost=cost, seed=seed,
            **overrides,
        )
        result = run_simulation(cfg, system)
        rows.append(
            {
                "cost_multiplier": float(mult),
                "redirect_cost_s": round(cost, 3),
                "mean_wait_s": result.overall_mean_wait(0),
                "worst_slot_wait_s": result.worst_case_wait(0),
                "redirected_frac": result.redirect_fraction(),
                "peak_redirected_frac": result.peak_redirect_fraction(),
                # "Although the waiting time of these requests has
                # significant penalty ... the redirection pays off."
                "mean_wait_redirected_s": result.split_mean_wait()[1],
            }
        )
    return ExperimentResult(
        experiment="fig12",
        description="waiting time vs redirection cost (complete graph)",
        rows=rows,
        notes=(
            "Paper: costs comparable to the mean service time have "
            "negligible impact because few requests are redirected.  "
            "Expected here: mean waits within a small factor across costs."
        ),
    )
