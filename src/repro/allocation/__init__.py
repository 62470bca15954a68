"""Enforcing sharing agreements: the allocation engine (Section 3).

Given a :class:`~repro.agreements.CapacityView`, a requesting principal
``A`` and an amount ``x``, the allocator decides how much of the request to
satisfy from each principal's raw resources, subject to the transitive
flow bounds, minimising the perturbation metric
``theta = max_i (C_i - C'_i)``.

- :mod:`~repro.allocation.lp_allocator` — the paper's LP in a *faithful*
  ``n^2 + n + 1``-variable formulation and an algebraically *reduced*
  ``n + 1``-variable formulation (identical optima, verified in tests);
- :mod:`~repro.allocation.endpoint` — the Figure-13 baseline that
  redistributes proportionally to direct agreement quantities without
  global availability information;
- :mod:`~repro.allocation.multiresource` — vector requests (one LP per
  resource type) and coupled-resource binding;
- :mod:`~repro.allocation.hierarchical` — the Section-3.2 multigrid
  refinement for hierarchical structures.
"""

from .endpoint import allocate_endpoint
from .hierarchical import allocate_hierarchical
from .lp_allocator import allocate_lp
from .multiresource import MultiResourceRequest, allocate_multi
from .problem import Allocation, AllocationRequest

__all__ = [
    "Allocation",
    "AllocationRequest",
    "allocate_lp",
    "allocate_endpoint",
    "allocate_hierarchical",
    "allocate_multi",
    "MultiResourceRequest",
]
