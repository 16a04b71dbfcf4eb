"""Unit tests for graph metrics against closed-form values."""

from __future__ import annotations

import pytest

from repro.errors import EmptyGraphError
from repro.graph import Graph, average_clustering, average_degree, local_clustering


class TestDegreeStats:
    def test_average_degree_cycle(self, c7):
        assert average_degree(c7) == 2.0

    def test_average_degree_complete(self, k5):
        assert average_degree(k5) == 4.0

    def test_average_degree_empty_raises(self):
        with pytest.raises(EmptyGraphError):
            average_degree(Graph.empty())


class TestClustering:
    def test_triangle_fully_clustered(self, triangle):
        assert local_clustering(triangle, 0) == 1.0
        assert average_clustering(triangle) == 1.0

    def test_star_has_no_triangles(self, star10):
        assert local_clustering(star10, 0) == 0.0

    def test_path_clustering_zero(self, p10):
        assert average_clustering(p10) == 0.0

    def test_degree_one_node_zero(self, square_with_tail):
        assert local_clustering(square_with_tail, 5) == 0.0

    def test_sampled_average_clustering_close(self, ba_small):
        full = average_clustering(ba_small)
        sampled = average_clustering(ba_small, sample=150, seed=2)
        assert abs(full - sampled) < 0.15

    def test_clustering_empty_raises(self):
        with pytest.raises(EmptyGraphError):
            average_clustering(Graph.empty())


class TestAssortativity:
    def test_star_is_maximally_disassortative(self, star10):
        from repro.graph import degree_assortativity

        assert degree_assortativity(star10) == pytest.approx(-1.0)

    def test_regular_graph_is_degenerate_zero(self, c7):
        from repro.graph import degree_assortativity

        assert degree_assortativity(c7) == 0.0

    def test_matches_networkx(self, ba_small):
        import networkx as nx

        from repro.graph import degree_assortativity

        nxg = nx.Graph()
        nxg.add_edges_from(map(tuple, ba_small.edge_array().tolist()))
        assert degree_assortativity(ba_small) == pytest.approx(
            nx.degree_assortativity_coefficient(nxg), abs=1e-10
        )

    def test_empty_rejected(self):
        from repro.graph import degree_assortativity

        with pytest.raises(EmptyGraphError):
            degree_assortativity(Graph.empty(3))
