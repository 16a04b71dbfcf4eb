"""Unit tests for community detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.community import greedy_modularity, modularity
from repro.errors import GraphError
from repro.generators import barbell_graph, complete_graph
from repro.graph import Graph
from tests.helpers import normalized_mutual_information, planted_partition


@pytest.fixture(scope="module")
def planted():
    """Four well-separated 30-node communities with ground truth."""
    graph = planted_partition(4, 30, 0.4, 0.005, seed=0)
    truth = np.repeat(np.arange(4), 30)
    return graph, truth


class TestModularity:
    def test_single_community_clique(self):
        g = complete_graph(6)
        assert modularity(g, np.zeros(6, dtype=np.int64)) == pytest.approx(0.0)

    def test_good_partition_positive(self):
        g = barbell_graph(8, 0)
        labels = np.array([0] * 8 + [1] * 8)
        assert modularity(g, labels) > 0.4

    def test_bad_partition_worse(self):
        g = barbell_graph(8, 0)
        good = np.array([0] * 8 + [1] * 8)
        rng = np.random.default_rng(4)
        bad = rng.integers(0, 2, size=16)
        assert modularity(g, good) > modularity(g, bad)

    def test_wrong_length_rejected(self, triangle):
        with pytest.raises(GraphError):
            modularity(triangle, np.zeros(5, dtype=np.int64))


class TestGreedyModularity:
    def test_recovers_planted_partition(self, planted):
        graph, truth = planted
        labels = greedy_modularity(graph, seed=5)
        assert normalized_mutual_information(labels, truth) > 0.8

    def test_beats_random_partition(self, planted):
        graph, _ = planted
        labels = greedy_modularity(graph, seed=6)
        rng = np.random.default_rng(6)
        random_labels = rng.integers(0, 4, size=graph.num_nodes)
        assert modularity(graph, labels) > modularity(graph, random_labels)

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            greedy_modularity(Graph.empty())


class TestPaperConnection:
    """The paper's thesis: slow mixing <=> strong community structure."""

    def test_slow_analog_has_higher_modularity(self, tiny_wiki, tiny_physics):
        fast_q = modularity(tiny_wiki, greedy_modularity(tiny_wiki, seed=8))
        slow_q = modularity(tiny_physics, greedy_modularity(tiny_physics, seed=8))
        assert slow_q > fast_q
