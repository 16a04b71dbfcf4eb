"""Unit tests for centrality measures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EmptyGraphError, GraphError
from repro.generators import complete_graph, cycle_graph, path_graph, star_graph
from repro.graph import Graph, betweenness_centrality


class TestBetweenness:
    def test_star_hub_maximal(self):
        g = star_graph(6)
        scores = betweenness_centrality(g, normalized=True)
        assert scores[0] == pytest.approx(1.0)
        assert np.allclose(scores[1:], 0.0)

    def test_complete_graph_zero(self):
        scores = betweenness_centrality(complete_graph(6))
        assert np.allclose(scores, 0.0)

    def test_path_middle_dominates(self):
        g = path_graph(5)
        scores = betweenness_centrality(g, normalized=False)
        # node 2 lies on 2*2=4 pairs' shortest paths
        assert scores[2] == pytest.approx(4.0)
        assert scores[0] == pytest.approx(0.0)
        assert scores[2] > scores[1] > scores[0]

    def test_cycle_symmetric(self):
        scores = betweenness_centrality(cycle_graph(8))
        assert np.allclose(scores, scores[0])

    def test_sampled_estimator_unbiased_shape(self):
        from repro.generators import barabasi_albert

        g = barabasi_albert(150, 3, seed=0)
        exact = betweenness_centrality(g)
        sampled = betweenness_centrality(g, sources=list(range(0, 150, 2)))
        # top nodes by exact centrality should rank high in the estimate
        top_exact = set(np.argsort(exact)[-10:].tolist())
        top_sampled = set(np.argsort(sampled)[-20:].tolist())
        assert len(top_exact & top_sampled) >= 7

    def test_invalid_sources(self):
        g = path_graph(4)
        with pytest.raises(GraphError):
            betweenness_centrality(g, sources=[])
        with pytest.raises(GraphError):
            betweenness_centrality(g, sources=[99])

    def test_empty_rejected(self):
        with pytest.raises(EmptyGraphError):
            betweenness_centrality(Graph.empty())
