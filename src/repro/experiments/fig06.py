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

from ..agreements import complete_structure
from .common import Figure

__all__ = ["run", "GAPS", "FIGURE"]

GAPS = (0.0, 900.0, 1800.0, 3600.0)


def _grid(scale, gaps=GAPS):
    lp = [({"gap_s": gap}, {"scheme": "lp", "gap": float(gap)}) for gap in gaps]
    return [({"gap_s": "none (no sharing)"}, {"scheme": "none", "gap": 3600.0})] + lp


def _series(rows, days):
    keys = ["wait:no-sharing"] + [f"wait:gap={int(row['gap_s'])}" for row in rows[1:]]
    items = [(key, day.mean_wait_series(0)) for key, day in zip(keys, days)]
    # The slot axis follows the first gap's curve among the CSV's columns.
    items.insert(2, ("slot_hours", days[-1].slot_times() / 3600.0))
    return dict(items)


FIGURE = Figure(
    name="fig06",
    description="avg waiting time vs gap, complete graph, 10% shares",
    structure=lambda label: complete_structure(10, share=0.1),
    grid=_grid,
    stats={
        "worst_slot_wait_s": lambda day, _: day.worst_case_wait(0),
        "mean_wait_s": lambda day, _: day.overall_mean_wait(0),
        "redirected": lambda day, _: day.redirect_fraction(),
    },
    series=_series,
    notes=(
        "Paper: gap=3600 drops the peak from ~250 s to < 2 s.  Expected "
        "here: monotone improvement with gap; gap=3600 one to two orders "
        "of magnitude below no-sharing."
    ),
)
run = FIGURE.run  # run(scale=25.0, seeds=(0,), gaps=GAPS): this figure alone
