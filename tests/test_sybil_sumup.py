"""Unit tests for SumUp vote collection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SybilDefenseError
from repro.generators import barabasi_albert, star_graph
from repro.graph import Graph
from repro.sybil import SumUp, SumUpConfig, standard_attack


@pytest.fixture(scope="module")
def vote_setup():
    honest = barabasi_albert(300, 4, seed=0)
    attack = standard_attack(honest, 6, sybil_scale=0.3, seed=0)
    return attack, SumUp(attack.graph)


class TestConfig:
    def test_invalid_capacity(self):
        with pytest.raises(SybilDefenseError):
            SumUpConfig(vote_capacity=0)

    def test_tiny_graph_rejected(self):
        with pytest.raises(SybilDefenseError):
            SumUp(Graph.from_edges([(0, 1)]))


def _boosted_links(sumup: SumUp, collector: int) -> dict[tuple[int, int], int]:
    """The half-edges ``(u, v)`` whose capacity toward ``collector`` is
    above 1, read from the per-collector vector over the CSR."""
    graph = sumup.graph
    rows = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    capacity = sumup._capacity(collector)
    boosted = capacity > 1
    return {
        (int(u), int(v)): int(c)
        for u, v, c in zip(rows[boosted], graph.indices[boosted], capacity[boosted])
    }


class TestCapacities:
    def test_envelope_links_boosted(self, vote_setup):
        _, sumup = vote_setup
        capacity = sumup._capacity(0)
        assert capacity.size == 2 * sumup.graph.num_edges
        assert np.all(capacity >= 1)
        assert _boosted_links(sumup, 0)  # envelope exists

    def test_capacities_point_toward_collector(self, vote_setup):
        attack, sumup = vote_setup
        from repro.graph import bfs_distances

        dist = bfs_distances(attack.graph, 0)
        for (u, v) in _boosted_links(sumup, 0):
            assert dist[u] == dist[v] + 1  # u is farther, votes flow inward


class TestCollection:
    def test_honest_votes_collected(self, vote_setup):
        attack, sumup = vote_setup
        rng = np.random.default_rng(1)
        voters = rng.choice(attack.num_honest, size=50, replace=False)
        result = sumup.collect(0, voters)
        assert result.collected_votes >= 0.9 * result.max_possible

    def test_sybil_votes_bounded_by_attack_edges(self, vote_setup):
        """SumUp's guarantee: bogus votes <= O(g)."""
        attack, sumup = vote_setup
        rng = np.random.default_rng(2)
        voters = rng.choice(attack.sybil_nodes, size=60, replace=False)
        result = sumup.collect(0, voters)
        assert result.collected_votes <= 3 * attack.num_attack_edges

    def test_mixed_votes(self, vote_setup):
        attack, sumup = vote_setup
        rng = np.random.default_rng(3)
        honest_voters = rng.choice(attack.num_honest, size=30, replace=False)
        sybil_voters = rng.choice(attack.sybil_nodes, size=30, replace=False)
        result = sumup.collect(0, np.concatenate([honest_voters, sybil_voters]))
        assert result.collected_votes >= 30 * 0.8
        assert result.collected_votes <= 30 + 3 * attack.num_attack_edges

    def test_collector_excluded_from_voters(self, vote_setup):
        _, sumup = vote_setup
        result = sumup.collect(0, [0, 1, 2])
        assert result.max_possible == 2

    def test_duplicate_voters_collapse(self, vote_setup):
        _, sumup = vote_setup
        result = sumup.collect(0, [1, 1, 2, 2])
        assert result.max_possible == 2

    def test_collection_fraction(self, vote_setup):
        _, sumup = vote_setup
        result = sumup.collect(0, [1, 2, 3])
        assert 0.0 <= result.collection_fraction <= 1.0

    def test_no_voters_rejected(self, vote_setup):
        _, sumup = vote_setup
        with pytest.raises(SybilDefenseError):
            sumup.collect(0, [])

    def test_star_topology_all_collected(self):
        sumup = SumUp(star_graph(8), SumUpConfig(vote_capacity=8))
        result = sumup.collect(0, list(range(1, 9)))
        assert result.collected_votes == 8
