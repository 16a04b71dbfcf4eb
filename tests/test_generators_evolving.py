"""Unit tests for interaction graphs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GeneratorError
from repro.generators import community_social_graph, interaction_graph, tie_strengths
from repro.graph import Graph, largest_connected_component


class TestInteractionGraph:
    @pytest.fixture(scope="class")
    def friendship(self):
        return community_social_graph(600, 6, 3, 0.05, seed=5)

    def test_strengths_shape_and_range(self, friendship):
        strengths = tie_strengths(friendship)
        assert strengths.shape == (friendship.num_edges,)
        assert np.all((0 <= strengths) & (strengths <= 1))

    def test_triangle_edge_stronger_than_bridge(self):
        # triangle 0-1-2 plus bridge 2-3
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        strengths = tie_strengths(g)
        edges = [tuple(e) for e in g.edge_array().tolist()]
        bridge = strengths[edges.index((2, 3))]
        embedded = strengths[edges.index((0, 1))]
        assert embedded > bridge

    def test_subgraph_of_friendship(self, friendship):
        inter = interaction_graph(friendship, activity=0.7, seed=6)
        assert inter.num_nodes == friendship.num_nodes
        assert inter.num_edges < friendship.num_edges
        for u, v in inter.edges():
            assert friendship.has_edge(u, v)

    def test_activity_controls_density(self, friendship):
        quiet = interaction_graph(friendship, activity=0.2, floor=0.0, seed=7)
        busy = interaction_graph(friendship, activity=1.0, floor=0.0, seed=7)
        assert busy.num_edges > quiet.num_edges

    def test_wilson_finding_interaction_graph_mixes_slower(self, friendship):
        """Ref [25]: interaction graphs are more community-confined."""
        from repro.mixing import slem

        inter = interaction_graph(friendship, activity=0.9, seed=8)
        lcc, _ = largest_connected_component(inter)
        if lcc.num_nodes > 50:  # enough structure to compare
            assert slem(lcc) >= slem(friendship) - 0.02

    def test_invalid_params(self, friendship):
        with pytest.raises(GeneratorError):
            interaction_graph(friendship, activity=0.0)
        with pytest.raises(GeneratorError):
            interaction_graph(friendship, floor=1.0)
        with pytest.raises(GeneratorError):
            tie_strengths(Graph.empty(3))
