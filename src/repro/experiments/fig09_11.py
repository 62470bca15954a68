"""Figures 9-11: transitivity levels on loop agreement structures.

Three loop structures over 10 ISPs, each ISP sharing 80% of its resources
with one other; the "skip" sets how many time zones away the donor is.

- Figure 9 (skip=1): "The worst-case waiting time when considering only
  direct agreements (level=1) is 35 seconds";
- Figure 10 (skip=3): "dropped to 7 seconds";
- Figure 11 (skip=7): "further to about 3 seconds";
- "When three or more levels of transitive agreements are considered, the
  worst-case waiting time drops to about 2 seconds in all three
  configurations."

Expected shape: at level 1, larger skip => lower worst-case wait (the sole
donor is further from the requester's rush hour); at level >= 3, all
three loops converge because transitive chains reach idle donors anyway.

Measurement note (see DESIGN.md): with 10 proxies spanning 10 hourly time
zones, a donor index wraps modulo 10 while the day is 24 h, so a proxy
with ``i - skip < 0`` does not actually have a donor ``skip`` hours away.
The reported waits therefore aggregate over origins ``skip..9`` whose
level-1 donor is genuine.
"""

from ..agreements import loop_structure
from .common import Figure

__all__ = ["run", "SKIPS", "LEVELS", "FIGURE"]

SKIPS = (1, 3, 7)
LEVELS = (1, 2, 3, 9)
_NAMES = {1: "fig09", 3: "fig10", 7: "fig11"}


def _grid(scale, skips=SKIPS, levels=LEVELS):
    points = [(int(skip), int(n)) for skip in skips for n in levels]
    return [
        ({"figure": _NAMES.get(k, f"skip{k}"), "skip": k, "level": n}, {"scheme": "lp", "level": n})
        for k, n in points
    ]


FIGURE = Figure(
    name="fig09_11",
    description="transitivity levels on loops (80% share, skip 1/3/7)",
    structure=lambda label: loop_structure(10, share=0.8, skip=label["skip"]),
    grid=_grid,
    stats={
        "worst_slot_wait_s": lambda day, label: day.worst_case_wait_over(range(label["skip"], 10)),
    },
    notes=(
        "Paper: level-1 worst-case waits 35 / 7 / 3 s for skip 1 / 3 / 7; "
        "level >= 3 converges to ~2 s for all skips.  Expected here: "
        "level-1 wait decreasing in skip; level-3 within a small factor "
        "across skips and no worse than level 1."
    ),
)
run = FIGURE.run  # run(scale=25.0, seeds=(0,), skips=SKIPS, levels=LEVELS): this figure alone
