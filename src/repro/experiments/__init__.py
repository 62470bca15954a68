"""Experiment harnesses: one module per figure of the paper's evaluation.

Each module, ``fig05`` … ``fig13`` (``fig09_11`` covers Figures 9-11;
``repro-experiments --list`` names them all), declares its figure as
data: a ``FIGURE`` (:class:`~repro.experiments.common.Figure`) holding
the grid of simulated days and the statistics of each row.
``figNN.run(scale=25, seeds=(0,), <axis>=...)`` returns the
:class:`ExperimentResult` the figure plots.  ``common.run_figures`` runs
any set of figures, simulating each distinct day once; the
:mod:`~repro.experiments.runner` CLI and the EXPERIMENTS.md generator
each make one such call.
"""

from .common import ExperimentResult

__all__ = ["ExperimentResult"]
