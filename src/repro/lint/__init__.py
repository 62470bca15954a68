"""reprolint — domain-aware static analysis for the agreement economy.

The generic linters (ruff, mypy) cannot see the invariants this codebase
actually lives on: that DES-managed code never reads the wall clock,
that LP outputs are never compared with ``==``, and that arrays handed
out by the topology/view caches are never written in place.  This
package checks exactly those, over the AST, with per-line suppressions
(``# reprolint: disable=R3``) and a committed baseline for incremental
adoption.  Entry points: ``scripts/reprolint.py`` and ``make lint``.

Two further contracts are enforced by structure rather than by a rule:
every :class:`~repro.economy.bank.Bank` mutator is wrapped by
``@mutates``, which bumps the version its caches key on, and the GRM
dispatches through the ``GlobalResourceManager.HANDLERS`` table, which
states the closed message protocol.

Rules
-----

- **R3** ``sim-time-purity`` — no ``time.time``/``datetime.now``/
  unseeded randomness in DES-managed code.
- **R4** ``float-equality`` — no ``==``/``!=`` on float capacity/theta
  quantities; use :func:`repro.units.approx_eq`.
- **R5** ``cache-aliasing`` — no in-place mutation of arrays returned by
  ``topology()``/``capacity_view()`` caches.

The runtime counterpart of these checks is :mod:`repro.sanitize`
(``REPRO_SANITIZE=1``), which asserts the same invariants on live values
in allocator/bank epilogues.
"""

from __future__ import annotations

from .baseline import Baseline
from .engine import LintModule, Rule, default_rules, run_lint
from .findings import Finding
from .suppress import parse_suppressions

__all__ = [
    "Baseline",
    "Finding",
    "LintModule",
    "Rule",
    "default_rules",
    "parse_suppressions",
    "run_lint",
]
