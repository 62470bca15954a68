"""The case study: resource sharing among ISP-level web proxies (Section 4).

A group of proxies serves diurnal client request streams; a request of
response length ``x`` consumes ``a + b*x`` seconds of the proxy's single
collapsed "general" resource (capped at ``c``).  When the work queued at a
proxy's front-end exceeds a threshold, the global scheduler is consulted;
it redirects the excess to other proxies, enforcing the sharing agreements
by solving the Section-3 LP (or one of the baseline schemes).

- :class:`~repro.proxysim.config.SimulationConfig` — all knobs, with the
  one workload-scale preset ``scaled(scale)`` (scale 1: the paper's);
- :class:`~repro.proxysim.simulator.ProxySimulation` — the fixed-step simulation loop;
- :class:`~repro.proxysim.metrics.SimulationResult` — one table of sums
  per (origin proxy, 10-minute slot), viewed as the per-slot series and
  scalar summaries the figures plot;
- :mod:`~repro.proxysim.redirect` — redirection policies: none,
  LP (centralized, transitive) and endpoint (proportional, Figure 13's
  baseline).
"""

from .config import ServiceModel, SimulationConfig
from .metrics import SimulationResult
from .redirect import (
    EndpointPolicy,
    LPPolicy,
    NoSharingPolicy,
    RedirectPolicy,
    make_policy,
)
from .simulator import ProxySimulation, run_simulation

__all__ = [
    "ServiceModel",
    "SimulationConfig",
    "SimulationResult",
    "ProxySimulation",
    "run_simulation",
    "RedirectPolicy",
    "NoSharingPolicy",
    "LPPolicy",
    "EndpointPolicy",
    "make_policy",
]
