"""Unit tests for SimBet DTN routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dtn import DeliveryStats, SimBetRouter, simulate_delivery
from repro.errors import GraphError
from repro.generators import barabasi_albert, complete_graph, star_graph
from repro.graph import Graph


@pytest.fixture(scope="module")
def contact_graph():
    return barabasi_albert(250, 4, seed=0)


class TestRouter:
    def test_similarity_self_is_one(self, contact_graph):
        router = SimBetRouter(contact_graph)
        assert router.similarity(5, 5) == 1.0

    def test_similarity_common_neighbors(self):
        g = Graph.from_edges([(0, 2), (1, 2), (0, 3), (1, 3), (1, 4)])
        router = SimBetRouter(g)
        # node 0 and node 1 share neighbors {2, 3}; deg(1) = 3
        assert router.similarity(0, 1) == pytest.approx(2 / 3)

    def test_hub_utility_dominates_on_star(self):
        g = star_graph(8)
        router = SimBetRouter(g, alpha=1.0)
        assert router.utility(0, 5) > router.utility(1, 5)

    def test_similarity_only_mode(self, contact_graph):
        router = SimBetRouter(contact_graph, alpha=0.0)
        dest = 7
        nbr = int(contact_graph.neighbors(dest)[0])
        far = int(
            next(
                v
                for v in range(contact_graph.num_nodes)
                if router.similarity(v, dest) == 0.0
            )
        )
        assert router.utility(nbr, dest) > router.utility(far, dest)

    def test_invalid_alpha(self, contact_graph):
        with pytest.raises(GraphError):
            SimBetRouter(contact_graph, alpha=1.5)

    def test_tiny_graph_rejected(self):
        with pytest.raises(GraphError):
            SimBetRouter(Graph.empty(1))


class TestSimulation:
    def test_stats_fields(self, contact_graph):
        stats = simulate_delivery(
            contact_graph, num_messages=40, max_rounds=20, seed=0
        )
        assert isinstance(stats, DeliveryStats)
        assert 0.0 <= stats.delivery_ratio <= 1.0
        assert stats.total == 40

    def test_complete_graph_delivers_fast(self):
        g = complete_graph(10)
        stats = simulate_delivery(
            g, num_messages=30, max_rounds=30, strategy="direct", seed=1
        )
        assert stats.delivery_ratio > 0.9

    def test_simbet_beats_direct(self, contact_graph):
        direct = simulate_delivery(
            contact_graph, num_messages=150, max_rounds=40, strategy="direct", seed=2
        )
        simbet = simulate_delivery(
            contact_graph, num_messages=150, max_rounds=40, strategy="simbet", seed=2
        )
        assert simbet.delivery_ratio > direct.delivery_ratio

    def test_simbet_cheaper_than_random(self, contact_graph):
        """The Daly-Haahr result: comparable delivery at a fraction of
        the forwarding cost."""
        random_stats = simulate_delivery(
            contact_graph, num_messages=150, max_rounds=40, strategy="random", seed=3
        )
        simbet_stats = simulate_delivery(
            contact_graph, num_messages=150, max_rounds=40, strategy="simbet", seed=3
        )
        assert simbet_stats.delivery_ratio >= 0.7 * random_stats.delivery_ratio
        assert simbet_stats.mean_hops < 0.5 * random_stats.mean_hops

    def test_invalid_strategy(self, contact_graph):
        with pytest.raises(GraphError):
            simulate_delivery(contact_graph, strategy="flood")

    def test_invalid_counts(self, contact_graph):
        with pytest.raises(GraphError):
            simulate_delivery(contact_graph, num_messages=0)
        with pytest.raises(GraphError):
            simulate_delivery(contact_graph, contacts_per_round=0)
