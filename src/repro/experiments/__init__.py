"""Experiment harnesses: one module per figure of the paper's evaluation.

Each ``figNN`` module exposes ``run(...) -> ExperimentResult`` producing
the same series/rows the figure plots, at a configurable workload scale
(``SimulationConfig.scaled``, default 25; see DESIGN.md).  The
:mod:`~repro.experiments.runner` CLI runs any subset and prints tables;
``benchmarks/`` wraps the same functions under pytest-benchmark.

| Module   | Paper figure | What it reproduces |
|----------|--------------|--------------------|
| fig05    | Figure 5     | request volume & waiting time per 10-min slot, no sharing |
| fig06    | Figure 6     | waiting time vs time skew (gap), complete graph |
| fig07    | Figure 7     | sharing vs extra standalone capacity |
| fig08    | Figure 8     | transitivity levels, complete graph |
| fig09_11 | Figures 9-11 | transitivity levels, loops with skip 1/3/7 |
| fig12    | Figure 12    | redirection cost impact |
| fig13    | Figure 13    | centralized LP vs endpoint enforcement |
"""

from .common import ExperimentResult

__all__ = ["ExperimentResult"]
