"""Unit tests for Monte-Carlo walks and random routes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import Graph
from repro.markov import (
    RouteTable,
    delta_block,
    empirical_distribution,
    evolve_block,
    random_walk,
    random_walks,
    total_variation_distance,
)
from repro.oracles import route_permutations


class TestRandomWalk:
    def test_length_and_start(self, ba_small, rng):
        walk = random_walk(ba_small, 3, 10, rng=rng)
        assert walk.size == 11
        assert walk[0] == 3

    def test_steps_follow_edges(self, ba_small, rng):
        walk = random_walk(ba_small, 0, 30, rng=rng)
        for a, b in zip(walk, walk[1:]):
            assert ba_small.has_edge(int(a), int(b))

    def test_zero_length(self, triangle, rng):
        walk = random_walk(triangle, 1, 0, rng=rng)
        assert np.array_equal(walk, [1])

    def test_isolated_node_stays(self, rng):
        g = Graph.empty(2)
        walk = random_walk(g, 0, 5, rng=rng)
        assert np.all(walk == 0)

    def test_negative_length_rejected(self, triangle, rng):
        with pytest.raises(GraphError):
            random_walk(triangle, 0, -1, rng=rng)

    def test_random_walks_shape(self, triangle, rng):
        walks = random_walks(triangle, 0, 4, 7, rng=rng)
        assert walks.shape == (7, 5)


class TestEmpiricalDistribution:
    def test_matches_algebraic_distribution(self, k5):
        """Sampled endpoints converge to the exact t-step distribution."""
        exact = evolve_block(k5, delta_block(5, [0]), 3)[:, 0]
        sampled = empirical_distribution(k5, 0, 3, 4000, rng=np.random.default_rng(1))
        assert total_variation_distance(exact, sampled) < 0.05

    def test_normalized(self, triangle):
        dist = empirical_distribution(triangle, 0, 2, 100, rng=np.random.default_rng(2))
        assert dist.sum() == pytest.approx(1.0)

    def test_zero_samples_rejected(self, triangle):
        with pytest.raises(GraphError):
            empirical_distribution(triangle, 0, 2, 0)


class TestRouteTable:
    def test_routes_deterministic(self, ba_small):
        table = RouteTable(ba_small, seed=5)
        first_hop = int(ba_small.neighbors(0)[0])
        a = table.route(0, first_hop, 20)
        b = table.route(0, first_hop, 20)
        assert np.array_equal(a, b)

    def test_route_follows_edges(self, ba_small):
        table = RouteTable(ba_small, seed=6)
        route = table.route(0, int(ba_small.neighbors(0)[0]), 15)
        for a, b in zip(route, route[1:]):
            assert ba_small.has_edge(int(a), int(b))

    def test_convergence_property(self, ba_small):
        """Two routes entering a node via the same edge exit identically —
        the SybilGuard convergence property."""
        table = RouteTable(ba_small, seed=7)
        node = 10
        prev = int(ba_small.neighbors(node)[0])
        assert table.next_hop(prev, node) == table.next_hop(prev, node)

    def test_permutation_is_bijective(self, ba_small):
        """Distinct entry edges exit over distinct edges (back-traceability)."""
        table = RouteTable(ba_small, seed=8)
        node = 5
        exits = [table.next_hop(int(p), node) for p in ba_small.neighbors(node)]
        assert len(set(exits)) == len(exits)

    def test_routes_from_counts(self, triangle):
        table = RouteTable(triangle, seed=9)
        routes = table.routes_from(0, 4)
        assert len(routes) == 2  # degree of node 0

    def test_non_adjacent_hop_rejected(self, square_with_tail):
        table = RouteTable(square_with_tail, seed=10)
        with pytest.raises(GraphError):
            table.next_hop(2, 4)  # 2 and 4 not adjacent

    def test_route_length_validation(self, triangle):
        table = RouteTable(triangle, seed=11)
        with pytest.raises(GraphError):
            table.route(0, 1, 0)

    def test_routes_match_per_hop_reference(self, ba_small, square_with_tail):
        """The O(1)-per-hop successor map reproduces, byte for byte, the
        routes of the original per-hop permutation lookup."""

        def reference_route(perms, graph, source, first_hop, length):
            path = [source, first_hop]
            prev, cur = source, first_hop
            for _ in range(length - 1):
                nbrs = graph.neighbors(cur)
                enter = int(np.searchsorted(nbrs, prev))
                nxt = int(nbrs[int(perms[cur][enter])])
                path.append(nxt)
                prev, cur = cur, nxt
            return np.asarray(path, dtype=np.int64)

        for graph in (ba_small, square_with_tail):
            table = RouteTable(graph, seed=12)
            perms = route_permutations(graph, seed=12)
            for source in range(graph.num_nodes):
                for nbr in graph.neighbors(source):
                    fast = table.route(source, int(nbr), 12)
                    slow = reference_route(perms, graph, source, int(nbr), 12)
                    assert fast.dtype == slow.dtype
                    assert fast.tobytes() == slow.tobytes()

    def test_next_hop_matches_permutation_reference(self, ba_small):
        table = RouteTable(ba_small, seed=13)
        perms = route_permutations(ba_small, seed=13)
        for node in range(ba_small.num_nodes):
            nbrs = ba_small.neighbors(node)
            for i, prev in enumerate(nbrs):
                expected = int(nbrs[int(perms[node][i])])
                assert table.next_hop(int(prev), node) == expected
