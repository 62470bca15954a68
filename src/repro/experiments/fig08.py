"""Figure 8: transitivity levels on a complete agreement graph.

"Figure 8 shows that in the complete graph case, resource sharing helps
but the incremental improvement by considering indirect transitive
agreements is small.  This is explained by the fact that all of the
servers are already reachable from the requesting server using direct
agreements."

Expected shape: level 1 already achieves nearly all of the benefit;
levels 2+ change the waiting time only marginally.
"""

from __future__ import annotations

from ..agreements import complete_structure
from ..proxysim import SimulationConfig, run_simulation
from .common import ExperimentResult, mean_over_seeds

__all__ = ["run", "LEVELS"]

LEVELS = (1, 2, 3, 5, 9)


def run(
    scale: float = 25.0,
    levels=LEVELS,
    seeds=(0,),
    share: float = 0.1,
    **overrides,
) -> ExperimentResult:
    system = complete_structure(10, share=share)
    rows = []

    base = mean_over_seeds(
        lambda s: run_simulation(
            SimulationConfig.scaled(scale, scheme="none", gap=3600.0, seed=s, **overrides)
        ).worst_case_wait(0),
        seeds,
    )
    rows.append({"level": "none", "worst_slot_wait_s": base})

    for level in levels:
        worst = mean_over_seeds(
            lambda s: run_simulation(
                SimulationConfig.scaled(
                    scale, scheme="lp", gap=3600.0, level=int(level), seed=s,
                    **overrides,
                ),
                system,
            ).worst_case_wait(0),
            seeds,
        )
        rows.append({"level": int(level), "worst_slot_wait_s": worst})

    return ExperimentResult(
        experiment="fig08",
        description="transitivity levels, complete graph (10 ISPs, 10% shares)",
        rows=rows,
        notes=(
            "Paper: sharing helps; incremental transitive benefit is small "
            "because every server is directly reachable.  Expected here: "
            "level 1 within ~25% of deeper levels, all far below no-sharing."
        ),
    )
