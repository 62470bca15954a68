"""Agreement matrices and the transitive flow computation (Section 3).

- :class:`~repro.agreements.topology.AgreementTopology` /
  :class:`~repro.agreements.topology.CapacityView` — the core split: an
  immutable, hashable structure (principals, relative matrix ``S``,
  absolute matrix ``A``) validated against the paper's constraints and
  owning the per-level clamped coefficient cache,
  and cheap capacity views binding raw capacities ``V`` to it, one per
  scheduling epoch (:meth:`CapacityView.from_matrices` builds both);
- :mod:`~repro.agreements.flow` — the flow coefficients ``T^(m)``
  (sums over acyclic agreement chains of at most ``m`` hops), which the
  topology clamps into ``K^(m)`` and turns, for each ``V``, into the
  clamped inflows ``U`` and effective capacities ``C_i``;
- :mod:`~repro.agreements.structures` — generators for the structures the
  paper names (complete, sparse, hierarchical) and the case study's loop
  with skip and distance-decay graphs;
- :mod:`~repro.agreements.analysis` — reachability, exposure and
  dependency reports over agreement graphs (the multigrid *allocator*
  lives in :mod:`repro.allocation.hierarchical`).
"""

from .analysis import (
    StructureSummary,
    chain_contributions,
    dependency,
    donor_set,
    exposure,
    reachable_set,
    summarize,
)
from .flow import transitive_coefficients
from .topology import AgreementTopology, CapacityView
from .structures import (
    complete_structure,
    distance_decay_structure,
    hierarchical_structure,
    loop_structure,
    sparse_structure,
)

__all__ = [
    "AgreementTopology",
    "CapacityView",
    "StructureSummary",
    "reachable_set",
    "donor_set",
    "exposure",
    "dependency",
    "chain_contributions",
    "summarize",
    "transitive_coefficients",
    "complete_structure",
    "loop_structure",
    "sparse_structure",
    "hierarchical_structure",
    "distance_decay_structure",
]
