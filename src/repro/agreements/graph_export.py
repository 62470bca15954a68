"""Exporting agreement systems as NetworkX graphs.

The agreement matrices are small dense arrays; for interoperability with
graph tooling (visualisation, centrality analysis, community detection on
large sparse structures) this module converts a
:class:`~repro.agreements.topology.CapacityView` to a
:class:`networkx.DiGraph` and back.

Edge attributes: ``share`` (relative fraction from ``S``) and ``grant``
(absolute quantity from ``A``); node attribute: ``capacity`` (``V``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import AgreementError
from .topology import CapacityView

if TYPE_CHECKING:  # networkx is an optional dependency
    import networkx as nx

__all__ = ["to_networkx", "from_networkx"]

_TOL = 1e-12


def to_networkx(system: CapacityView) -> "nx.DiGraph":
    """Convert to a directed graph with share/grant edge attributes."""
    import networkx as nx

    g = nx.DiGraph()
    for i, p in enumerate(system.principals):
        g.add_node(p, capacity=float(system.V[i]))
    for i in range(system.n):
        for j in range(system.n):
            share = float(system.S[i, j])
            grant = float(system.A[i, j]) if system.A is not None else 0.0
            if share > _TOL or grant > _TOL:
                g.add_edge(
                    system.principals[i],
                    system.principals[j],
                    share=share,
                    grant=grant,
                )
    g.graph["allow_overdraft"] = system.allow_overdraft
    return g


def from_networkx(graph: "nx.DiGraph", *, flow_method: str = "dp") -> CapacityView:
    """Rebuild a :class:`CapacityView` from a graph produced by
    :func:`to_networkx` (or hand-built with the same attributes).

    Nodes need a ``capacity`` attribute (default 0); edges may carry
    ``share`` and/or ``grant`` (defaults 0).
    """
    principals = list(graph.nodes)
    if not principals:
        raise AgreementError("graph has no nodes")
    index = {p: i for i, p in enumerate(principals)}
    n = len(principals)
    V = np.zeros(n)
    S = np.zeros((n, n))
    A = np.zeros((n, n))
    for p, data in graph.nodes(data=True):
        V[index[p]] = float(data.get("capacity", 0.0))
    for u, v, data in graph.edges(data=True):
        S[index[u], index[v]] = float(data.get("share", 0.0))
        A[index[u], index[v]] = float(data.get("grant", 0.0))
    return CapacityView.from_matrices(
        principals,
        V,
        S,
        A if np.any(A) else None,
        allow_overdraft=bool(graph.graph.get("allow_overdraft", False)),
        flow_method=flow_method,
    )
