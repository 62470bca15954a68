"""Tests for NetworkX import/export of agreement systems."""

import networkx as nx
import numpy as np
import pytest

from repro.agreements import CapacityView, complete_structure, loop_structure
from repro.agreements.graph_export import from_networkx, to_networkx
from repro.errors import AgreementError


class TestExport:
    def test_nodes_carry_capacity(self):
        system = complete_structure(4, 0.1, capacity=[1.0, 2.0, 3.0, 4.0])
        g = to_networkx(system)
        assert g.nodes["isp2"]["capacity"] == 3.0
        assert g.number_of_nodes() == 4
        assert g.number_of_edges() == 12

    def test_edges_carry_share_and_grant(self):
        S = np.array([[0.0, 0.3], [0.0, 0.0]])
        A = np.array([[0.0, 2.0], [0.0, 0.0]])
        system = CapacityView.from_matrices(["a", "b"], np.array([5.0, 0.0]), S, A)
        g = to_networkx(system)
        assert g["a"]["b"]["share"] == pytest.approx(0.3)
        assert g["a"]["b"]["grant"] == pytest.approx(2.0)
        assert not g.has_edge("b", "a")

    def test_loop_topology(self):
        # skip must be coprime with n for a single cycle (7 and 2 are).
        g = to_networkx(loop_structure(7, 0.8, skip=2))
        assert nx.is_strongly_connected(g)
        assert all(g.out_degree(n) == 1 for n in g.nodes)

    def test_non_coprime_skip_gives_disjoint_cycles(self):
        g = to_networkx(loop_structure(6, 0.8, skip=2))
        assert not nx.is_strongly_connected(g)
        components = list(nx.strongly_connected_components(g))
        assert len(components) == 2


class TestRoundTrip:
    def test_matrices_survive(self):
        system = complete_structure(5, 0.12, capacity=2.0)
        back = from_networkx(to_networkx(system))
        assert back.principals == system.principals
        np.testing.assert_allclose(back.S, system.S)
        np.testing.assert_allclose(back.V, system.V)
        np.testing.assert_allclose(back.capacities(), system.capacities())

    def test_absolute_matrix_survives(self):
        A = np.array([[0.0, 2.0], [0.0, 0.0]])
        system = CapacityView.from_matrices(
            ["a", "b"], np.array([5.0, 0.0]), np.zeros((2, 2)), A
        )
        back = from_networkx(to_networkx(system))
        np.testing.assert_allclose(back.A, A)

    def test_overdraft_flag_survives(self):
        S = np.array([[0.0, 0.7, 0.7], [0, 0, 0], [0, 0, 0]])
        system = CapacityView.from_matrices(
            ["a", "b", "c"], np.ones(3), S, allow_overdraft=True
        )
        back = from_networkx(to_networkx(system))
        assert back.allow_overdraft

    def test_hand_built_graph(self):
        g = nx.DiGraph()
        g.add_node("x", capacity=10.0)
        g.add_node("y")  # capacity defaults to 0
        g.add_edge("x", "y", share=0.4)
        system = from_networkx(g)
        assert system.capacity_of("y") == pytest.approx(4.0)

    def test_empty_graph_rejected(self):
        with pytest.raises(AgreementError):
            from_networkx(nx.DiGraph())


class TestGraphAnalysisInterop:
    def test_centrality_identifies_hub(self):
        """A star structure's hub dominates betweenness — graph tooling
        works directly on exported systems."""
        n = 6
        S = np.zeros((n, n))
        for i in range(1, n):
            S[0, i] = 0.15   # hub shares with everyone
            S[i, 0] = 0.5    # all share back with the hub
        system = CapacityView.from_matrices(
            [f"p{i}" for i in range(n)], np.ones(n), S
        )
        g = to_networkx(system)
        centrality = nx.betweenness_centrality(g)
        assert max(centrality, key=centrality.get) == "p0"
