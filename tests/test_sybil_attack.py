"""Unit tests for the Sybil attack model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SybilDefenseError
from repro.generators import barabasi_albert, complete_graph
from repro.graph import Graph, num_connected_components
from repro.sybil import inject_sybils, standard_attack


class TestInjectSybils:
    def test_region_layout(self):
        honest = barabasi_albert(100, 3, seed=0)
        sybil = complete_graph(20)
        attack = inject_sybils(honest, sybil, 5, seed=1)
        assert attack.num_honest == 100
        assert attack.num_sybil == 20
        assert attack.graph.num_nodes == 120
        assert np.array_equal(attack.honest_nodes, np.arange(100))
        assert np.array_equal(attack.sybil_nodes, np.arange(100, 120))

    def test_attack_edge_accounting(self):
        honest = barabasi_albert(100, 3, seed=0)
        sybil = complete_graph(15)
        attack = inject_sybils(honest, sybil, 7, seed=2)
        assert attack.num_attack_edges == 7
        # each attack edge crosses the boundary
        for h, s in attack.attack_edges:
            assert h < 100
            assert s >= 100
            assert attack.graph.has_edge(int(h), int(s))

    def test_edge_count_preserved(self):
        honest = barabasi_albert(80, 3, seed=3)
        sybil = complete_graph(10)
        attack = inject_sybils(honest, sybil, 4, seed=4)
        assert attack.graph.num_edges == honest.num_edges + sybil.num_edges + 4

    def test_is_sybil(self):
        honest = barabasi_albert(50, 2, seed=5)
        attack = inject_sybils(honest, complete_graph(5), 2, seed=5)
        assert not attack.is_sybil(0)
        assert attack.is_sybil(50)

    def test_targeted_strategy_hits_hubs(self):
        honest = barabasi_albert(200, 3, seed=6)
        attack = inject_sybils(
            honest, complete_graph(10), 5, strategy="targeted", seed=6
        )
        hub_cutoff = np.sort(honest.degrees)[-10]
        for h, _ in attack.attack_edges:
            assert honest.degree(int(h)) >= hub_cutoff

    def test_unknown_strategy_rejected(self):
        honest = barabasi_albert(50, 2, seed=7)
        with pytest.raises(SybilDefenseError):
            inject_sybils(honest, complete_graph(5), 2, strategy="bribe")

    def test_zero_attack_edges_gives_disconnected_region(self):
        """g=0 is a legal scenario (the metamorphic baseline: a Sybil
        region with no path into the honest region); only negative
        edge counts are rejected."""
        honest = barabasi_albert(50, 2, seed=8)
        attack = inject_sybils(honest, complete_graph(5), 0)
        assert attack.num_attack_edges == 0
        assert attack.attack_edges.shape == (0, 2)
        with pytest.raises(SybilDefenseError):
            inject_sybils(honest, complete_graph(5), -1)

    def test_empty_region_rejected(self):
        with pytest.raises(SybilDefenseError):
            inject_sybils(Graph.empty(), complete_graph(5), 1)

    def test_too_many_attack_edges_rejected(self):
        with pytest.raises(SybilDefenseError):
            inject_sybils(complete_graph(3), complete_graph(3), 10)

    def test_deterministic(self):
        honest = barabasi_albert(60, 2, seed=9)
        a = inject_sybils(honest, complete_graph(6), 3, seed=10)
        b = inject_sybils(honest, complete_graph(6), 3, seed=10)
        assert a.graph == b.graph
        assert np.array_equal(a.attack_edges, b.attack_edges)


class TestEvaluateAccepted:
    def test_scores(self):
        honest = barabasi_albert(50, 2, seed=11)
        attack = inject_sybils(honest, complete_graph(10), 5, seed=11)
        accepted = np.concatenate([np.arange(25), attack.sybil_nodes[:10]])
        honest_frac, per_edge = attack.evaluate_accepted(accepted)
        assert honest_frac == pytest.approx(0.5)
        assert per_edge == pytest.approx(2.0)

    def test_empty_acceptance(self):
        honest = barabasi_albert(50, 2, seed=12)
        attack = inject_sybils(honest, complete_graph(5), 2, seed=12)
        honest_frac, per_edge = attack.evaluate_accepted(np.array([], dtype=np.int64))
        assert honest_frac == 0.0
        assert per_edge == 0.0


class TestStandardAttack:
    def test_sybil_region_scales(self):
        honest = barabasi_albert(200, 3, seed=13)
        attack = standard_attack(honest, 10, sybil_scale=0.25, seed=13)
        assert attack.num_sybil >= 0.2 * honest.num_nodes
        assert num_connected_components(attack.graph) == 1

    def test_invalid_scale(self):
        honest = barabasi_albert(100, 2, seed=14)
        with pytest.raises(SybilDefenseError):
            standard_attack(honest, 5, sybil_scale=0.0)


class TestClusteredStrategy:
    def test_attack_edges_land_in_one_neighborhood(self):
        from repro.graph import bfs_distances

        honest = barabasi_albert(300, 3, seed=20)
        attack = inject_sybils(
            honest, complete_graph(10), 8, strategy="clustered", seed=20
        )
        endpoints = attack.attack_edges[:, 0]
        # the endpoints span a tight ball: all within 3 hops of the first
        dist = bfs_distances(honest, int(endpoints[0]))
        assert np.all(dist[endpoints] <= 3)

    def test_clustered_more_concentrated_than_random(self):
        """On a community graph (large distances) the clustered
        placement stays local while random placement spreads."""
        from repro.generators import community_social_graph
        from repro.graph import bfs_distances

        honest = community_social_graph(600, 6, 3, 0.02, seed=21)

        def spread(strategy):
            attack = inject_sybils(
                honest, complete_graph(10), 10, strategy=strategy, seed=21
            )
            endpoints = attack.attack_edges[:, 0]
            dist = bfs_distances(honest, int(endpoints[0]))
            return float(dist[endpoints].mean())

        assert spread("clustered") < spread("random")
