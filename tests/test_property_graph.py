"""Property-based tests (hypothesis) for the graph substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    Graph,
    bfs_distances,
    connected_components,
    disjoint_union,
    induced_subgraph,
)

MAX_NODES = 24


@st.composite
def edge_lists(draw, max_nodes: int = MAX_NODES):
    """Random edge lists over a bounded node range."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    k = draw(st.integers(min_value=0, max_value=3 * n))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            min_size=k,
            max_size=k,
        )
    )
    return n, edges


@st.composite
def graphs(draw, max_nodes: int = MAX_NODES):
    n, edges = draw(edge_lists(max_nodes))
    return Graph.from_edges(edges, num_nodes=n)


class TestConstructionInvariants:
    @given(edge_lists())
    @settings(max_examples=100)
    def test_handshake_lemma(self, data):
        n, edges = data
        g = Graph.from_edges(edges, num_nodes=n)
        assert g.degrees.sum() == 2 * g.num_edges

    @given(edge_lists())
    @settings(max_examples=100)
    def test_symmetry(self, data):
        n, edges = data
        g = Graph.from_edges(edges, num_nodes=n)
        for u, v in g.edges():
            assert g.has_edge(v, u)

    @given(edge_lists())
    @settings(max_examples=100)
    def test_no_self_loops_and_sorted_neighbors(self, data):
        n, edges = data
        g = Graph.from_edges(edges, num_nodes=n)
        for v in range(g.num_nodes):
            nbrs = g.neighbors(v)
            assert v not in nbrs
            assert np.all(np.diff(nbrs) > 0)  # strictly sorted = unique

    @given(edge_lists())
    @settings(max_examples=100)
    def test_edge_array_round_trip(self, data):
        n, edges = data
        g = Graph.from_edges(edges, num_nodes=n)
        assert Graph.from_edges(g.edge_array(), num_nodes=n) == g


class TestOpsInvariants:
    @given(graphs())
    @settings(max_examples=60)
    def test_union_sizes(self, g):
        u = disjoint_union(g, g)
        assert u.num_nodes == 2 * g.num_nodes
        assert u.num_edges == 2 * g.num_edges

    @given(graphs())
    @settings(max_examples=60)
    def test_full_subgraph_is_identity(self, g):
        sub, ids = induced_subgraph(g, list(range(g.num_nodes)))
        assert sub == g
        assert np.array_equal(ids, np.arange(g.num_nodes))


class TestTraversalInvariants:
    @given(graphs())
    @settings(max_examples=60)
    def test_bfs_triangle_inequality_over_edges(self, g):
        """Adjacent nodes' BFS distances differ by at most 1."""
        if g.num_nodes == 0:
            return
        dist = bfs_distances(g, 0)
        for u, v in g.edges():
            if dist[u] >= 0 and dist[v] >= 0:
                assert abs(dist[u] - dist[v]) <= 1

    @given(graphs())
    @settings(max_examples=60)
    def test_components_are_bfs_closed(self, g):
        """Every node reachable from v shares v's component label."""
        if g.num_nodes == 0:
            return
        labels = connected_components(g)
        dist = bfs_distances(g, 0)
        reached = np.flatnonzero(dist >= 0)
        assert np.unique(labels[reached]).size == 1

    @given(graphs())
    @settings(max_examples=60)
    def test_component_labels_cover_all_nodes(self, g):
        labels = connected_components(g)
        assert labels.size == g.num_nodes
        if labels.size:
            assert labels.min() >= 0
