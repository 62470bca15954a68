#!/usr/bin/env python3
"""Observability walkthrough: trace an ISP-sharing scenario end to end.

Enables :mod:`repro.obs` with a JSONL trace, then exercises every
instrumented layer:

1. a GRM/LRM cluster allocating over the message transport
   (per-endpoint message counters, GRM allocate spans, LP solves);
2. a small proxy-group simulation (the run span's tick count, one
   consultation span and decision per scheduler LP solve, the
   redirect and wait figures).

Finally it replays the trace's metric snapshot into the report that
``scripts/obs_trace.py report`` prints, the same tables as the live
``obs.report()``.

Run:  python examples/tracing_demo.py [trace.jsonl]
"""

import sys
import tempfile
from pathlib import Path

import repro.obs as obs
from repro.agreements import complete_structure
from repro.economy import Bank
from repro.manager import (
    AllocationRequestMsg,
    GlobalResourceManager,
    InProcessTransport,
    LocalResourceManager,
    ReleaseMsg,
)
from repro.obs.report import render_trace
from repro.proxysim import SimulationConfig, run_simulation
from repro.units import ResourceVector


def manager_cluster() -> None:
    """Three ISPs sharing bandwidth through the GRM/LRM protocol."""
    bank = Bank()
    transport = InProcessTransport()
    grm = GlobalResourceManager("grm", bank)
    grm.attach(transport)

    capacities = {"isp0": 10.0, "isp1": 8.0, "isp2": 6.0}
    lrms = {}
    for isp, cap in capacities.items():
        grm.register_principal(isp, ResourceVector(general=cap))
        lrms[isp] = LocalResourceManager(isp, ResourceVector(general=cap))
        lrms[isp].attach(transport)
    # Everyone shares 40% with everyone else.
    for donor in capacities:
        for receiver in capacities:
            if donor != receiver:
                bank.issue_relative_ticket(donor, receiver, 40.0)

    for lrm in lrms.values():
        lrm.report("general")

    # isp2 bursts past its own capacity and leans on the agreements.
    grant = transport.send(
        "grm",
        AllocationRequestMsg(sender="isp2", principal="isp2", amount=9.0),
    )
    print(f"grant to isp2: takes={grant.takes} theta={grant.theta:.3f}")
    transport.send("grm", ReleaseMsg(sender="isp2", grant_id=grant.msg_id))
    sent = obs.get_observer().registry.snapshot()["counters"]["transport.sent"]
    print(f"messages delivered: {sum(sent.values()):g} (per endpoint: {sent})")


def proxy_simulation() -> None:
    """A down-scaled Figure-6-style run: 4 proxies, LP redirection."""
    cfg = SimulationConfig.scaled(
        scale=200.0, n_proxies=4, warmup_days=0, measure_days=1,
    )
    system = complete_structure(4, share=0.1)
    result = run_simulation(cfg, system)
    s = result.summary()
    print(f"simulated {s['total_requests']} requests, "
          f"{s['total_redirected']} redirected, "
          f"{s['scheduler_consults']} consults, mean wait {s['mean_wait']:.2f}s")


def main() -> None:
    if len(sys.argv) > 1:
        trace_path = Path(sys.argv[1])
    else:
        trace_path = Path(tempfile.gettempdir()) / "repro_tracing_demo.jsonl"
    obs.enable(trace_path=trace_path)

    print("== GRM/LRM cluster over the message transport ==")
    manager_cluster()
    print("\n== proxy-group simulation (scheme=lp) ==")
    proxy_simulation()

    obs.disable()  # writes the snapshot record and closes the trace

    print(f"\n== report replayed from {trace_path} ==")
    print(render_trace(trace_path))


if __name__ == "__main__":
    main()
