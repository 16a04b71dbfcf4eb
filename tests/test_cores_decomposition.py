"""Unit tests for the Batagelj–Zaversnik core decomposition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cores import core_decomposition, degeneracy
from repro.errors import GraphError
from repro.generators import complete_graph, cycle_graph, path_graph, star_graph
from repro.graph import Graph


class TestCoreness:
    def test_complete_graph(self):
        assert np.all(core_decomposition(complete_graph(6)) == 5)

    def test_cycle(self):
        assert np.all(core_decomposition(cycle_graph(9)) == 2)

    def test_path(self):
        assert np.all(core_decomposition(path_graph(6)) == 1)

    def test_star(self):
        coreness = core_decomposition(star_graph(8))
        assert np.all(coreness == 1)

    def test_square_with_tail(self, square_with_tail):
        coreness = core_decomposition(square_with_tail)
        assert np.array_equal(coreness, [2, 2, 2, 2, 1, 1])

    def test_clique_with_pendant(self):
        g = Graph.from_edges(
            [(0, 1), (0, 2), (1, 2), (2, 3)]  # triangle + pendant
        )
        assert np.array_equal(core_decomposition(g), [2, 2, 2, 1])

    def test_empty_graph(self):
        assert core_decomposition(Graph.empty()).size == 0

    def test_isolated_nodes_have_zero_coreness(self):
        g = Graph.from_edges([(0, 1)], num_nodes=3)
        assert core_decomposition(g)[2] == 0

    def test_two_cliques_joined_by_edge(self):
        # K4 - bridge - K4: coreness 3 everywhere, bridge doesn't raise it
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(i + 4, j + 4) for i, j in edges[:6]]
        edges.append((3, 4))
        g = Graph.from_edges(edges)
        assert np.all(core_decomposition(g) == 3)


class TestDegeneracy:
    def test_complete(self):
        assert degeneracy(complete_graph(7)) == 6

    def test_tree(self):
        assert degeneracy(path_graph(10)) == 1

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            degeneracy(Graph.empty())
