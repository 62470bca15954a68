"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Runs every workload small, untraced and traced, and fails (exit 1) unless

- every run is correct, and its metrics carry exactly the names and units
  that ``BENCHMARK.json`` declares (``end_to_end`` untraced, ``per_layer``
  traced);
- no wrapper is left installed after a traced run;
- the output checks reject a doctored grant;
- the reference tolerance accepts an exact solver that breaks ties
  differently (the repository's own simplex backend) and rejects wrong
  allocations (transitive flows ignored; no sharing at all).
"""

from __future__ import annotations

import functools
import json
import sys

import run
import workloads

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)
        print(f"FAIL {message}", flush=True)


def declared(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def check_runs() -> None:
    from tracer import installed_wrappers

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        want = declared(section)
        for workload in workloads.WORKLOADS:
            result, record = run.measure(workload, 1, 0.5, trace, smoke=True)
            label = f"{workload} trace={int(trace)}"
            expect(result["correct"], f"{label}: incorrect: {record['problems']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
            expect(not installed_wrappers(), f"{label}: wrappers left installed")
            if trace:
                layers = result["metrics"]
                expect(layers["lp.solves"]["value"] > 0, f"{label}: no LP solve traced")
                frac = layers["trace.attributed_frac"]["value"]
                expect(0.9 <= frac <= 1.1, f"{label}: self times cover {frac:.3f} of wall")
            print(f"ok   {label}: {result['attempted']} operations", flush=True)


def check_doctored_grant() -> None:
    import numpy as np

    import checks
    from repro.agreements import complete_structure
    from repro.allocation.lp_allocator import allocate_lp

    system = complete_structure(10, share=0.1)
    V = np.linspace(10.0, 100.0, 10)
    V[3] = 0.0
    view = system.topology.view(V)
    allocation = allocate_lp(view, "isp3", 60.0)
    T = view.coefficients()
    args = (V, T, 3, 60.0)
    expect(checks.check_grant(*args, allocation.take, allocation.theta) is None,
           "a true grant fails the check")
    shifted = allocation.take.copy()
    donor = int(np.argmax(shifted))
    shifted[donor] -= 1.0
    shifted[next(i for i in range(10) if i not in (3, donor))] += 1.0
    expect(checks.check_grant(*args, shifted, allocation.theta) is not None,
           "a grant with moved takes passes the check")
    expect(checks.check_grant(*args, allocation.take, allocation.theta * 0.9) is not None,
           "a grant with a wrong theta passes the check")
    print("ok   output checks reject doctored grants", flush=True)


def grm_denials(allocator, seed: int = 2) -> dict:
    from repro.manager import grm

    original = grm.allocate_lp
    grm.allocate_lp = allocator
    try:
        return workloads.reference_outputs("grm_steady", seed)
    finally:
        grm.allocate_lp = original


def sim_outputs(seed: int = 2, **overrides) -> dict:
    from repro.agreements import complete_structure
    from repro.proxysim import ProxySimulation

    cfg = workloads._sim_config(seed, workloads.SMOKE_SIZES["proxysim_day"])
    result = ProxySimulation(cfg.with_(**overrides), complete_structure(10, share=0.1)).run()
    return workloads._sim_outputs(result)


def check_tolerance() -> None:
    import reference
    from repro.allocation.lp_allocator import allocate_lp

    def direct_only(*args, **kwargs):
        return allocate_lp(*args, **{**kwargs, "level": 1})

    base = grm_denials(allocate_lp)
    other = grm_denials(functools.partial(allocate_lp, backend="simplex"))
    wrong = grm_denials(direct_only)
    print(f"     grm_steady denials: highs {base}, simplex {other}, level-1 {wrong}")
    expect(not reference.within("grm_steady", base, other),
           "grm_steady: the simplex backend falls outside the tolerance")
    expect(bool(reference.within("grm_steady", base, wrong)),
           "grm_steady: ignoring transitive flows stays inside the tolerance")

    base = sim_outputs()
    other = sim_outputs(allocator_backend="simplex")
    wrong = sim_outputs(scheme="none")
    print(f"     proxysim_day outputs: highs {base}\n       simplex {other}\n       none {wrong}")
    expect(not reference.within("proxysim_day", base, other),
           "proxysim_day: the simplex backend falls outside the tolerance")
    expect(bool(reference.within("proxysim_day", base, wrong)),
           "proxysim_day: no sharing stays inside the tolerance")
    print("ok   reference tolerance separates tie-breaking from wrong answers", flush=True)


def main() -> int:
    run.prepare()
    check_runs()
    check_doctored_grant()
    check_tolerance()
    print("selftest:", "FAILED" if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
