"""scipy.optimize is loaded by a HiGHS solve and by nothing else.

Importing it costs ~50 MB of RSS and ~0.4 s, so importing the library and
allocating with the in-repo simplex must leave it out of ``sys.modules``.
Runs in a fresh interpreter: this test process has long since loaded it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROGRAM = """
import sys

import repro.agreements, repro.allocation, repro.manager, repro.proxysim
from repro.agreements import complete_structure
from repro.allocation import allocate_lp

system = complete_structure(4, 0.1)
allocate_lp(system, "isp0", 1.2, backend="simplex")
print("scipy.optimize" in sys.modules)
allocate_lp(system, "isp0", 1.2, backend="scipy")
print("scipy.optimize" in sys.modules)
"""


def test_only_a_highs_solve_loads_scipy_optimize():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
