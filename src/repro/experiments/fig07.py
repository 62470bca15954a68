"""Figure 7: sharing vs buying more capacity.

"Figure 7 compares this performance with the average waiting time
obtained when sharing is disabled, but the proxy server has more
processing power (corresponding to an increased capacity investment).  We
can see that 25%-35% more resources are required to match the performance
obtained by resource sharing."

We sweep standalone capacity 1.0..1.5 with sharing off, run sharing at
capacity 1.0, and report the crossover: the smallest capacity factor whose
no-sharing configuration beats the sharing configuration.  "Matching the
performance" is judged on the *peak-slot* waiting time (the region the
paper's curves separate in); the off-peak mean is dominated in our scaled
setup by the scheduler's threshold floor, which extra standalone capacity
does not have to pay (see EXPERIMENTS.md).
"""

from ..agreements import complete_structure
from .common import Figure

__all__ = ["run", "CAPACITY_FACTORS", "FIGURE"]

CAPACITY_FACTORS = (1.0, 1.1, 1.2, 1.25, 1.3, 1.35, 1.4, 1.5)


def _grid(scale, factors=CAPACITY_FACTORS):
    none = [
        ({"config": "no sharing", "capacity": f}, {"scheme": "none", "capacity": f})
        for f in map(float, factors)
    ]
    return [({"config": "sharing @ capacity 1.0", "capacity": 1.0}, {"scheme": "lp"})] + none


def _notes(rows):
    target, swept = rows[0]["worst_slot_wait_s"], rows[1:]
    crossover = next((r["capacity"] for r in swept if r["worst_slot_wait_s"] <= target), None)
    if crossover is None:
        crossover = f">{max(r['capacity'] for r in swept)}"
    return (
        "Paper: 25-35% extra standalone capacity needed to match sharing.  "
        f"Measured crossover capacity factor: {crossover}"
    )


FIGURE = Figure(
    name="fig07",
    description="sharing vs increased standalone capacity",
    structure=lambda label: complete_structure(10, share=0.1),
    grid=_grid,
    stats={
        "mean_wait_s": lambda day, _: day.overall_mean_wait(0),
        "worst_slot_wait_s": lambda day, _: day.worst_case_wait(0),
    },
    notes=_notes,
)
run = FIGURE.run  # run(scale=25.0, seeds=(0,), factors=CAPACITY_FACTORS): this figure alone
