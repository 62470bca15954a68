"""Command-line runner for the experiment harnesses.

::

    repro-experiments --list
    repro-experiments fig06 fig13
    repro-experiments all --scale 50 --seed 1
    python -m repro.experiments.runner fig05

``--scale s`` runs ``SimulationConfig.scaled(s)`` (see DESIGN.md §3): the
paper's offered-load profile with s-times fewer, s-times longer requests.
25 is the default benchmark scale; 1 has the paper's service model and
~475 k requests/proxy/day (slow).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import fig05, fig06, fig07, fig08, fig09_11, fig12, fig13

__all__ = ["main", "EXPERIMENTS"]

EXPERIMENTS = {
    "fig05": fig05.run,
    "fig06": fig06.run,
    "fig07": fig07.run,
    "fig08": fig08.run,
    "fig09_11": fig09_11.run,
    "fig12": fig12.run,
    "fig13": fig13.run,
}


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
        for name, fn in EXPERIMENTS.items():
            first_line = (fn.__module__ and sys.modules[fn.__module__].__doc__ or "").strip().splitlines()[0]
            print(f"{name:10s} {first_line}")
        return 0

    names = args.experiments
    if names == ["all"] or names == []:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; try --list")

    for name in names:
        fn = EXPERIMENTS[name]
        start = time.perf_counter()
        kwargs = {"scale": args.scale}
        if "seed" in fn.__code__.co_varnames:
            kwargs["seed"] = args.seed
        elif "seeds" in fn.__code__.co_varnames:
            kwargs["seeds"] = (args.seed,)
        result = fn(**kwargs)
        elapsed = time.perf_counter() - start
        print(result.render())
        if args.plot and result.series:
            from .plotting import render_series

            print(render_series(result))
        if args.csv:
            for path in result.to_csv(args.csv):
                print(f"wrote {path}")
        print(f"[{name} took {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
