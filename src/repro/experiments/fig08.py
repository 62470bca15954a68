"""Figure 8: transitivity levels on a complete agreement graph.

"Figure 8 shows that in the complete graph case, resource sharing helps
but the incremental improvement by considering indirect transitive
agreements is small.  This is explained by the fact that all of the
servers are already reachable from the requesting server using direct
agreements."

Expected shape: level 1 already achieves nearly all of the benefit;
levels 2+ change the waiting time only marginally.
"""

from ..agreements import complete_structure
from .common import Figure

__all__ = ["run", "LEVELS", "FIGURE"]

LEVELS = (1, 2, 3, 5, 9)


def _grid(scale, levels=LEVELS):
    lp = [({"level": int(n)}, {"scheme": "lp", "level": int(n)}) for n in levels]
    return [({"level": "none"}, {"scheme": "none"})] + lp


FIGURE = Figure(
    name="fig08",
    description="transitivity levels, complete graph (10 ISPs, 10% shares)",
    structure=lambda label: complete_structure(10, share=0.1),
    grid=_grid,
    stats={"worst_slot_wait_s": lambda day, _: day.worst_case_wait(0)},
    notes=(
        "Paper: sharing helps; incremental transitive benefit is small "
        "because every server is directly reachable.  Expected here: "
        "level 1 within ~25% of deeper levels, all far below no-sharing."
    ),
)
run = FIGURE.run  # run(scale=25.0, seeds=(0,), levels=LEVELS): this figure alone
