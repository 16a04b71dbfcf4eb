"""Unit tests for graph transformations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    Graph,
    disjoint_union,
    induced_subgraph,
    largest_connected_component,
    with_edges_added,
)


class TestInducedSubgraph:
    def test_keeps_internal_edges(self, square_with_tail):
        sub, ids = induced_subgraph(square_with_tail, [0, 1, 2, 3])
        assert sub.num_nodes == 4
        assert sub.num_edges == 4  # the square
        assert np.array_equal(ids, [0, 1, 2, 3])

    def test_relabels_compactly(self):
        g = Graph.from_edges([(2, 5), (5, 9)])
        sub, ids = induced_subgraph(g, [2, 5, 9])
        assert sub.num_nodes == 3
        assert sub.has_edge(0, 1)
        assert sub.has_edge(1, 2)
        assert np.array_equal(ids, [2, 5, 9])

    def test_empty_selection(self, triangle):
        sub, ids = induced_subgraph(triangle, [])
        assert sub.num_nodes == 0
        assert ids.size == 0

    def test_duplicate_nodes_collapse(self, triangle):
        sub, _ = induced_subgraph(triangle, [0, 0, 1])
        assert sub.num_nodes == 2

    def test_invalid_node_rejected(self, triangle):
        with pytest.raises(GraphError):
            induced_subgraph(triangle, [0, 99])


class TestLargestComponent:
    def test_extracts_biggest(self):
        g = Graph.from_edges([(0, 1), (1, 2), (3, 4)])
        lcc, ids = largest_connected_component(g)
        assert lcc.num_nodes == 3
        assert np.array_equal(ids, [0, 1, 2])

    def test_connected_graph_unchanged(self, k5):
        lcc, ids = largest_connected_component(k5)
        assert lcc == k5
        assert np.array_equal(ids, np.arange(5))


class TestEdgeEdits:
    def test_add_edges(self, triangle):
        g = with_edges_added(triangle, [(0, 3)])
        assert g.num_nodes == 4
        assert g.has_edge(0, 3)
        assert g.num_edges == 4

    def test_add_no_edges_returns_same(self, triangle):
        assert with_edges_added(triangle, []) is triangle

    def test_add_existing_edge_is_noop(self, triangle):
        g = with_edges_added(triangle, [(0, 1)])
        assert g.num_edges == 3

    def test_add_rejects_bad_shape(self, triangle):
        with pytest.raises(GraphError):
            with_edges_added(triangle, np.array([[1, 2, 3]]))


class TestUnionAndRelabel:
    def test_disjoint_union_offsets_second(self, triangle):
        g = disjoint_union(triangle, triangle)
        assert g.num_nodes == 6
        assert g.num_edges == 6
        assert g.has_edge(3, 4)
        assert not g.has_edge(0, 3)

    def test_disjoint_union_with_empty(self, triangle):
        g = disjoint_union(triangle, Graph.empty(2))
        assert g.num_nodes == 5
        assert g.num_edges == 3
