"""Command-line runner for the experiment harnesses.

::

    repro-experiments --list
    repro-experiments fig06 fig13
    repro-experiments all --scale 50 --seed 1
    python -m repro.experiments.runner fig05

``--scale s`` runs ``SimulationConfig.scaled(s)`` (see DESIGN.md §3): the
paper's offered-load profile with s-times fewer, s-times longer requests.
25 is the default benchmark scale; 1 has the paper's service model and
~475 k requests/proxy/day (slow).  The requested figures run in one
:func:`~repro.experiments.common.run_figures` call, which simulates a day
that several figures share once; the tables print when it ends.
"""

from __future__ import annotations

import argparse
import time

from . import fig05, fig06, fig07, fig08, fig09_11, fig12, fig13
from .common import run_figures
from .plotting import render_series

__all__ = ["main", "EXPERIMENTS"]

EXPERIMENTS = {m.FIGURE.name: m for m in (fig05, fig06, fig07, fig08, fig09_11, fig12, fig13)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help="experiment ids (see --list), or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--scale", type=float, default=25.0,
        help="workload scale: s-times fewer, s-times longer requests than "
        "the paper's (default 25)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--plot", action="store_true",
        help="render per-slot series as terminal charts",
    )
    parser.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also write rows/series as CSV files into DIR",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, module in EXPERIMENTS.items():
            print(f"{name:10s} {module.__doc__.strip().splitlines()[0]}")
        return 0

    names = args.experiments
    if names == ["all"] or names == []:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; try --list")

    start = time.perf_counter()
    requests = [(EXPERIMENTS[name].FIGURE, {}) for name in names]
    for result in run_figures(requests, args.scale, (args.seed,)):
        print(result.render())
        if args.plot and result.series:
            print(render_series(result))
        if args.csv:
            for path in result.to_csv(args.csv):
                print(f"wrote {path}")
        print()
    print(f"[{' '.join(names)} took {time.perf_counter() - start:.1f}s]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
