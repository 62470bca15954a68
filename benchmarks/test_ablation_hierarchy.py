"""Ablation: flat LP vs multigrid refinement on hierarchical structures.

Section 3.2 proposes multigrid refinement to reduce LP complexity on
hierarchical agreement graphs.  This bench compares the flat
(all-principals) LP against the two-level multigrid allocator on a
6-groups-of-8 structure: the multigrid answer must satisfy the same
requests with comparable perturbation while solving much smaller LPs.
"""

import numpy as np
import pytest

from repro.agreements import hierarchical_structure
from repro.allocation import allocate_hierarchical, allocate_lp

SYSTEM = hierarchical_structure(
    6, 8, intra_share_total=0.5, inter_share=0.08, capacity=1.0
)
REQUESTER = "node0"


def test_flat_lp_speed(benchmark):
    amount = 0.9 * SYSTEM.capacity_of(REQUESTER)
    result = benchmark(allocate_lp, SYSTEM, REQUESTER, amount)
    assert result.satisfied == pytest.approx(amount)


def test_multigrid_speed(benchmark):
    amount = 0.9 * SYSTEM.capacity_of(REQUESTER)
    result = benchmark(
        allocate_hierarchical, SYSTEM, REQUESTER, amount, partial=True
    )
    assert result.satisfied > 0


def test_multigrid_matches_flat_quality():
    rng = np.random.default_rng(11)
    for _ in range(5):
        V = 0.5 + rng.random(SYSTEM.n)
        live = SYSTEM.with_capacities(V)  # keeps the topology's groups
        amount = 0.6 * live.capacity_of(REQUESTER)
        flat = allocate_lp(live, REQUESTER, amount)
        multi = allocate_hierarchical(live, REQUESTER, amount, partial=True)
        # Multigrid satisfies (nearly) the full request...
        assert multi.satisfied >= amount * 0.95
        # ...with perturbation within a small factor of the optimum.
        assert multi.theta <= flat.theta * 5.0 + 0.2
