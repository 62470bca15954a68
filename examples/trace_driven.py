#!/usr/bin/env python3
"""Trace-driven simulation: bring your own logs.

The paper's simulator is trace-driven; this example shows the full
path for substituting a real trace:

1. write/read a per-proxy CSV trace (here we synthesise one, but
   ``parse_common_log_line`` converts raw proxy logs);
2. fit a :class:`DiurnalProfile` to the observed arrivals and check the
   fit quality (is this trace diurnal enough for the paper's setup?);
3. drive the proxy simulation directly from the trace streams.

Run:  python examples/trace_driven.py   (~4 s)
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.agreements import complete_structure
from repro.proxysim import SimulationConfig, run_simulation
from repro.workload import (
    DiurnalProfile,
    RequestStream,
    fit_profile,
    profile_fit_error,
    read_trace,
    write_trace,
)
from repro.workload.diurnal import DAY_SECONDS


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-traces-") as workdir:
        run(Path(workdir))


def run(workdir: Path) -> None:
    """Write the traces under ``workdir``, fit them, then simulate."""
    n_proxies = 4

    # --- 1. produce per-proxy trace files (stand-in for real logs) --------
    cfg = SimulationConfig.scaled(scale=60, n_proxies=n_proxies, gap=3600.0)
    base = cfg.base_profile()
    paths = []
    rng = np.random.default_rng(7)
    for i in range(n_proxies):
        stream = RequestStream(
            base.with_skew(i * cfg.gap), horizon=cfg.horizon, origin=i
        )
        reqs = stream.sample(rng)
        path = workdir / f"proxy{i}.csv"
        write_trace(path, reqs)
        paths.append(path)
    print(f"wrote {n_proxies} trace files under {workdir}")

    # --- 2. read back, fit, and validate the shape --------------------------
    streams = [read_trace(p) for p in paths]
    fitted = fit_profile(streams[0])
    err = profile_fit_error(streams[0], fitted)
    peak_hour = float(
        np.argmax(fitted.rate(np.linspace(0, DAY_SECONDS, 1440))) / 60.0
    )
    print(
        f"proxy0: {len(streams[0])} requests; fitted "
        f"{fitted.requests_per_day:.0f}/day, peak ~{peak_hour:.1f}h, "
        f"fit error {err:.2f}"
    )
    flat = DiurnalProfile(
        requests_per_day=fitted.requests_per_day, a1=0.0, a2=0.0
    )
    print(f"  (a flat profile scores {profile_fit_error(streams[0], flat):.2f})")

    # --- 3. simulate straight from the traces --------------------------------
    system = complete_structure(n_proxies, share=0.1)
    for scheme in ("none", "lp"):
        result = run_simulation(cfg.with_(scheme=scheme),
                                system if scheme != "none" else None,
                                streams=streams)
        print(f"[{scheme}] worst slot wait (proxy0) = "
              f"{result.worst_case_wait(0):.1f}s, "
              f"mean = {result.overall_mean_wait(0):.2f}s")


if __name__ == "__main__":
    main()
