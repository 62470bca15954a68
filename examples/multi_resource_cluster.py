#!/usr/bin/env python3
"""Multi-resource requests, coupled resources, and hierarchical allocation.

Exercises the Section-3.2 extensions:

1. a vector request over two resource types (one LP per type);
2. CPU+memory bound into a coupled "slot" type so they always land on the
   same machine;
3. overdraft semantics (the paper's 60%+60%+100% example);
4. multigrid refinement on a hierarchical structure.

Run:  python examples/multi_resource_cluster.py
"""

import numpy as np

from repro.agreements import CapacityView, hierarchical_structure
from repro.allocation import (
    MultiResourceRequest,
    allocate_hierarchical,
    allocate_lp,
    allocate_multi,
)
from repro.allocation.multiresource import expand_coupled_takes
from repro.economy import Bank
from repro.units import CoupledResource, ResourceVector


def vector_requests() -> None:
    print("=== 1. Vector request over cpu + disk ===")
    bank = Bank()
    for p in ("alpha", "beta", "gamma"):
        bank.create_currency(p)
    bank.deposit_capacity("alpha", 64, "cpu")
    bank.deposit_capacity("alpha", 2000, "disk")
    bank.deposit_capacity("beta", 16, "cpu")
    bank.issue_relative_ticket("alpha", "beta", 25)   # 25% of alpha
    bank.issue_relative_ticket("beta", "gamma", 50)   # 50% of beta

    systems = {
        rt: bank.capacity_view(rt) for rt in ("cpu", "disk")
    }
    request = MultiResourceRequest(
        "gamma", ResourceVector(cpu=10.0, disk=200.0)
    )
    plans = allocate_multi(systems, request)
    for rtype, plan in plans.items():
        print(f"  {rtype}: takes {plan.takes_by_name()} (theta={plan.theta:.2f})")


def coupled_resources() -> None:
    print("\n=== 2. Coupled cpu+mem 'slot' bundles ===")
    slot = CoupledResource("slot", ResourceVector(cpu=2.0, mem=8.0))
    bank = Bank()
    bank.create_currency("provider")
    bank.create_currency("tenant")
    bank.deposit_capacity("provider", 32, "slot")  # 64 cpu / 256 GB worth
    bank.issue_relative_ticket("provider", "tenant", 50)
    systems = {"slot": bank.capacity_view("slot")}
    request = MultiResourceRequest(
        "tenant", ResourceVector(slot=6.0), coupled=(slot,)
    )
    plans = allocate_multi(systems, request)
    footprint = expand_coupled_takes(request, plans)
    print(f"  slot takes: {plans['slot'].takes_by_name()}")
    print(f"  physical footprint per donor: {footprint}")


def overdraft() -> None:
    print("\n=== 3. Overdraft semantics (Section 3.2's example) ===")
    S = np.array([[0.0, 0.6, 0.6], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    system = CapacityView.from_matrices(["A", "B", "C"], np.array([10.0, 0.0, 0.0]), S)
    print(f"  unclamped share reaching C: {0.6 + 0.6:.1f} of A's 10")
    print(f"  C's capacity with the K clamp: {system.capacity_of('C'):g} "
          "(the paper's '10 instead of 12')")
    plan = allocate_lp(system, "C", 10.0)
    print(f"  allocating all 10 to C -> takes {plan.takes_by_name()}")


def hierarchical() -> None:
    print("\n=== 4. Multigrid refinement on a hierarchical structure ===")
    system = hierarchical_structure(
        4, 6, intra_share_total=0.5, inter_share=0.08, capacity=1.0
    )
    amount = 0.9 * system.capacity_of("node0")
    flat = allocate_lp(system, "node0", amount)
    multi = allocate_hierarchical(system, "node0", amount, partial=True)
    print(f"  flat LP ({system.n} principals): theta={flat.theta:.3f}")
    print(f"  multigrid (coarse {len(system.topology.groups)} groups + refinement): "
          f"satisfied={multi.satisfied:.2f}, theta={multi.theta:.3f}")
    donors_outside = {
        system.principals[i]
        for i in np.nonzero(multi.take)[0]
        if i not in system.topology.groups[0]
    }
    print(f"  cross-group donors engaged: {sorted(donors_outside) or 'none'}")


if __name__ == "__main__":
    vector_requests()
    coupled_resources()
    overdraft()
    hierarchical()
