"""scipy.optimize is loaded by a HiGHS solve and by nothing else.

Importing it costs ~50 MB of RSS and ~0.4 s, so importing the library and
allocating with the in-repo simplex, the default backend of every path,
must leave it out of ``sys.modules``.  Runs in a fresh interpreter: this
test process has long since loaded it.
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


DEFAULTS = """
import sys

from repro.agreements import complete_structure, hierarchical_structure
from repro.allocation import MultiResourceRequest, allocate_hierarchical, allocate_multi
from repro.economy import Bank
from repro.manager import AllocationGrant, AllocationRequestMsg, GlobalResourceManager
from repro.manager import InProcessTransport, LocalResourceManager
from repro.proxysim import ProxySimulation, SimulationConfig
from repro.units import ResourceVector

# A GRM grant that borrows over InProcessTransport.
transport = InProcessTransport()
bank = Bank()
grm = GlobalResourceManager("grm", bank)
grm.attach(transport)
for name, cap in (("a", 10.0), ("b", 2.0)):
    grm.register_principal(name, ResourceVector(general=cap))
    lrm = LocalResourceManager(name, ResourceVector(general=cap))
    lrm.attach(transport)
    lrm.report()
bank.issue_relative_ticket("a", "b", 50)
grant = transport.send("grm", AllocationRequestMsg(sender="b", principal="b", amount=4.0))
assert isinstance(grant, AllocationGrant) and len(grant.takes) == 2, grant

# A short LP day that consults the scheduler.
config = SimulationConfig.scaled(
    400, gap=3600.0, scheme="lp", epoch=600.0, warmup_days=0, measure_days=1
)
result = ProxySimulation(config, complete_structure(config.n_proxies, 0.1)).run()
assert result.scheduler_consults > 0

# A group-spanning multigrid request and a vector request.
system = hierarchical_structure(3, 4, inter_share=0.2)
allocate_hierarchical(system, "node0", 0.95 * system.capacity_of("node0"), partial=True)
systems = {"cpu": complete_structure(4, 0.1), "disk": complete_structure(4, 0.2)}
allocate_multi(systems, MultiResourceRequest("isp0", ResourceVector(cpu=1.2, disk=1.3)))
print("scipy.optimize" in sys.modules)
"""


def _run(program):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_only_a_highs_solve_loads_scipy_optimize():
    assert _run(PROGRAM) == ["False", "True"]


def test_default_paths_leave_scipy_optimize_unloaded():
    """The GRM, the proxy simulation's LP scheme, the multigrid refine and
    vector requests all solve with the in-repo simplex unless asked."""
    assert _run(DEFAULTS) == ["False"]
