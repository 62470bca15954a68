"""The first HiGHS solve does not time the scipy.optimize import.

``solve`` loads its backend before it opens the ``lp.solve`` span, so the
~0.4 s import lands outside every solve's duration.  Runs in a fresh
interpreter: this test process has long since loaded scipy.optimize.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROGRAM = """
import sys

import repro.obs as obs
from repro.agreements import complete_structure
from repro.allocation import allocate_lp
from repro.obs.tracing import Span

loaded_at_open = []
enter = Span.__enter__


def spy(self):
    if self.name == "lp.solve":
        loaded_at_open.append("scipy.optimize" in sys.modules)
    return enter(self)


Span.__enter__ = spy
obs.enable()
print("scipy.optimize" in sys.modules)
allocate_lp(complete_structure(4, 0.1), "isp0", 1.2, backend="scipy")
print(*loaded_at_open)
"""


def test_scipy_loaded_before_first_solve_span_opens():
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
