"""One run of every harness test's grid, shared by the whole session.

The grids run on a drastically reduced workload (scale 250 ≈ 2k
requests/proxy/day) in one :func:`run_figures` call, so a day that
several figures' grids meet is simulated once; the fixture also counts
the days simulated.
"""

from dataclasses import dataclass

import pytest

from repro.experiments import common, fig05, fig06, fig07, fig08, fig09_11, fig12, fig13
from repro.experiments.common import ExperimentResult

#: Each harness test's figure and grid axes, by the test's name for it.
GRIDS = {
    "fig05": (fig05.FIGURE, {}),
    "fig06": (fig06.FIGURE, {"gaps": (0.0, 3600.0)}),
    "fig07": (fig07.FIGURE, {"factors": (1.0, 1.5)}),
    "fig08": (fig08.FIGURE, {"levels": (1, 9)}),
    "fig09": (fig09_11.FIGURE, {"skips": (1,), "levels": (1, 3)}),
    "fig10_11": (fig09_11.FIGURE, {"skips": (3, 7), "levels": (1,)}),
    "fig12": (fig12.FIGURE, {"cost_multipliers": (0.0, 2.0)}),
    "fig13": (fig13.FIGURE, {}),
}


@dataclass
class Figures:
    results: dict[str, ExperimentResult]
    days_simulated: int


@pytest.fixture(scope="session")
def figures() -> Figures:
    calls = []

    def counted(config, system=None):
        calls.append(config)
        return run_simulation(config, system)

    run_simulation = common.run_simulation
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(common, "run_simulation", counted)
        results = common.run_figures(list(GRIDS.values()), scale=250.0, seeds=(0,))
    return Figures(dict(zip(GRIDS, results)), len(calls))
