"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grm_steady --seed 1 --seconds 24 --trace 0

Run from the repository root.  The package is imported from ``src/``; the
observability and sanitizer switches (``REPRO_OBS``, ``REPRO_SANITIZE``) are
cleared first, so every run times the production path.  With ``--trace 0``
the last line of output carries the end-to-end metrics, with ``--trace 1``
the per-layer ones; the line before it is the full run record (machine
stamp, sample counts, outputs, check results).  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def prepare() -> None:
    """Import the package from this checkout with its debug switches off."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {SRC / 'repro'}; run from a full checkout")
    for var in ("REPRO_OBS", "REPRO_SANITIZE"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    import numpy
    import scipy

    import speed

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        # the speed loop's time now; the metrics are normalised to it segment by segment
        "calibration_ms": statistics.median(speed.loop_ms() for _ in range(5)),
        "reference_ms": speed.REFERENCE_MS,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run a workload and check it; returns ``(result line, run record)``."""
    import reference
    from tracer import installed_wrappers

    outcome = workloads.run(workload, seed, seconds, trace, smoke=smoke)
    problems = list(outcome.problems)
    if not smoke:
        problems += reference.compare(workload, seed, outcome.outputs)
    if installed_wrappers():
        problems.append(f"wrappers left installed: {installed_wrappers()}")
    if trace:
        metrics = dict(outcome.per_layer)
    else:
        metrics = dict(outcome.e2e)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    result = {
        "correct": not problems and outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fail_frac": outcome.failed / max(outcome.attempted, 1),
        "outputs": outcome.outputs,
        "problems": problems,
        **outcome.extra,
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record["stamp"] = stamp()
    for problem in record["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
