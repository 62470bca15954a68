"""Per-seed reference outputs, and the tolerance a run is held to.

``reference.json`` stores, for each seed it covers:

- ``grm_steady``: the number of denials in the client's first
  ``workloads.REF_STEPS`` steps;
- ``proxysim_day``: mean wait, worst 10-minute-slot wait, redirected
  fraction and scheduler consultations of the simulated day.

The tolerances let an exact LP solver that breaks ties differently pass:
which donors a grant draws from changes what they report free afterwards,
which moves a few borderline denials and redirections.  A wrong allocation
moves these outputs much further (``selftest.py`` checks both directions).
A seed with no stored entry is checked by the per-decision checks only.

Regenerate after a deliberate behaviour change::

    python3 perfbench/reference.py 0 31    # seeds 0..31 inclusive
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent / "reference.json"

#: output -> (absolute slack, relative slack); the larger applies
TOLERANCE = {
    "grm_steady": {"denied_first_steps": (3.0, 0.15)},
    "proxysim_day": {
        "mean_wait": (0.0, 0.05),
        "worst_slot_wait": (0.0, 0.15),
        "redirect_frac": (0.0, 0.10),
        "consults": (0.0, 0.05),
    },
}


def within(workload: str, expected: dict, actual: dict) -> list[str]:
    """Mismatches between two output dicts under the workload's tolerance."""
    problems = []
    for key, (absolute, relative) in TOLERANCE.get(workload, {}).items():
        want, got = expected[key], actual.get(key)
        if got is None or abs(got - want) > max(absolute, relative * abs(want)):
            problems.append(f"{key} = {got}, reference {want}")
    return problems


def load() -> dict:
    return json.loads(PATH.read_text())


def compare(workload: str, seed: int, outputs: dict) -> list[str]:
    expected = load().get(workload, {}).get(str(seed))
    if expected is None:
        return []
    return [f"seed {seed}: {p}" for p in within(workload, expected, outputs)]


def main(argv: list[str]) -> int:
    import run  # puts src/ on the import path

    run.prepare()
    import workloads

    low, high = int(argv[0]), int(argv[1])
    table = load() if PATH.exists() else {}
    for workload in TOLERANCE:
        entries = table.setdefault(workload, {})
        for seed in range(low, high + 1):
            entries[str(seed)] = workloads.reference_outputs(workload, seed)
            print(workload, seed, entries[str(seed)], flush=True)
        table[workload] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
    PATH.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
