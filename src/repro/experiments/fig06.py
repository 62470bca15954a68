"""Figure 6: effect of time skew ("gap") on waiting time under sharing.

"Figure 6 shows the impact of resource sharing agreements between a group
of 10 ISPs on the average waiting time of a client request at a
particular ISP, parameterized for different amounts of time skew between
the client request streams.  The agreement structure is a complete graph
where each server shares 10% of its resources with every other server...
with a gap of 3600 seconds, the average waiting time drops dramatically
from 250 seconds to below 2 seconds."

Expected shape: larger gaps spread the rush hours apart, so donors are
idle when a proxy peaks; the peak wait collapses by one to two orders of
magnitude as the gap grows from 0 to 3600 s.
"""

from __future__ import annotations

from ..agreements import complete_structure
from ..proxysim import SimulationConfig, run_simulation
from .common import ExperimentResult

__all__ = ["run", "GAPS"]

GAPS = (0.0, 900.0, 1800.0, 3600.0)


def run(
    scale: float = 25.0,
    gaps=GAPS,
    seed: int = 0,
    share: float = 0.1,
    include_baseline: bool = True,
    **overrides,
) -> ExperimentResult:
    system = complete_structure(10, share=share)
    rows = []
    series = {}

    if include_baseline:
        cfg = SimulationConfig.scaled(scale, scheme="none", gap=3600.0, seed=seed, **overrides)
        base = run_simulation(cfg)
        rows.append(
            {
                "gap_s": "none (no sharing)",
                "worst_slot_wait_s": base.worst_case_wait(0),
                "mean_wait_s": base.overall_mean_wait(0),
                "redirected": 0.0,
            }
        )
        series["wait:no-sharing"] = base.mean_wait_series(0)

    for gap in gaps:
        cfg = SimulationConfig.scaled(scale, scheme="lp", gap=float(gap), seed=seed, **overrides)
        result = run_simulation(cfg, system)
        rows.append(
            {
                "gap_s": gap,
                "worst_slot_wait_s": result.worst_case_wait(0),
                "mean_wait_s": result.overall_mean_wait(0),
                "redirected": result.redirect_fraction(),
            }
        )
        series[f"wait:gap={int(gap)}"] = result.mean_wait_series(0)
        series["slot_hours"] = result.slot_times() / 3600.0

    return ExperimentResult(
        experiment="fig06",
        description="avg waiting time vs gap, complete graph, 10% shares",
        rows=rows,
        series=series,
        notes=(
            "Paper: gap=3600 drops the peak from ~250 s to < 2 s.  Expected "
            "here: monotone improvement with gap; gap=3600 one to two orders "
            "of magnitude below no-sharing."
        ),
    )
