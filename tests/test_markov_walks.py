"""Unit tests for Monte-Carlo walks and random routes.

Sampled walks come from the walk engine's modes
(:mod:`repro.markov.walk_batch`); routes from one route table's
half-edge block (:func:`repro.markov.walks._route_paths`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import Graph
from repro.markov import (
    delta_block,
    evolve_block,
    total_variation_distance,
    walk_block,
    walk_endpoints,
)
from repro.markov.walks import _route_paths
from repro.oracles import route_permutations


class TestRandomWalk:
    def test_length_and_start(self, ba_small):
        walk = walk_block(ba_small, [3], 10, seed=0)[0]
        assert walk.size == 11
        assert walk[0] == 3

    def test_steps_follow_edges(self, ba_small):
        walk = walk_block(ba_small, [0], 30, seed=0)[0]
        for a, b in zip(walk, walk[1:]):
            assert ba_small.has_edge(int(a), int(b))

    def test_zero_length(self, triangle):
        walk = walk_block(triangle, [1], 0, seed=0)[0]
        assert np.array_equal(walk, [1])

    def test_isolated_node_stays(self):
        g = Graph.empty(2)
        walk = walk_block(g, [0], 5, seed=0)[0]
        assert np.all(walk == 0)

    def test_negative_length_rejected(self, triangle):
        with pytest.raises(GraphError):
            walk_block(triangle, [0], -1, seed=0)

    def test_random_walks_shape(self, triangle):
        walks = walk_block(triangle, np.zeros(7, dtype=np.int64), 4, seed=0)
        assert walks.shape == (7, 5)


def _endpoint_distribution(graph, source, length, num_samples, seed):
    """The empirical ``length``-step distribution of ``num_samples`` walks."""
    sources = np.full(num_samples, source, dtype=np.int64)
    ends = walk_endpoints(graph, sources, length, seed=seed)
    return np.bincount(ends, minlength=graph.num_nodes) / num_samples


class TestEmpiricalDistribution:
    def test_matches_algebraic_distribution(self, k5):
        """Sampled endpoints converge to the exact t-step distribution."""
        exact = evolve_block(k5, delta_block(5, [0]), 3)[:, 0]
        sampled = _endpoint_distribution(k5, 0, 3, 4000, 1)
        assert total_variation_distance(exact, sampled) < 0.05

    def test_normalized(self, triangle):
        dist = _endpoint_distribution(triangle, 0, 2, 100, 2)
        assert dist.sum() == pytest.approx(1.0)


def _reference_route(perms, graph, source, first_hop, length):
    """One route, one permutation lookup per hop."""
    path = [source, first_hop]
    prev, cur = source, first_hop
    for _ in range(length - 1):
        nbrs = graph.neighbors(cur)
        enter = int(np.searchsorted(nbrs, prev))
        nxt = int(nbrs[int(perms[cur][enter])])
        path.append(nxt)
        prev, cur = cur, nxt
    return np.asarray(path, dtype=np.int64)


class TestRouteTable:
    def test_routes_deterministic(self, ba_small):
        first, second = _route_paths(ba_small, 5, 20), _route_paths(ba_small, 5, 20)
        assert np.array_equal(first, second)

    def test_route_follows_edges(self, ba_small):
        for route in _route_paths(ba_small, 6, 15):
            for a, b in zip(route, route[1:]):
                assert ba_small.has_edge(int(a), int(b))

    def test_convergence_property(self, ba_small):
        """Routes that cross one edge in one direction leave it together —
        the SybilGuard convergence property."""
        paths = _route_paths(ba_small, 7, 12)
        exits: dict[tuple[int, int], int] = {}
        for route in paths:
            for prev, node, nxt in zip(route, route[1:], route[2:]):
                assert exits.setdefault((int(prev), int(node)), int(nxt)) == nxt

    def test_permutation_is_bijective(self, ba_small):
        """Distinct entry edges exit over distinct edges (back-traceability)."""
        paths = _route_paths(ba_small, 8, 12)
        entries: dict[tuple[int, int], int] = {}
        for route in paths:
            for prev, node, nxt in zip(route, route[1:], route[2:]):
                assert entries.setdefault((int(node), int(nxt)), int(prev)) == prev

    def test_routes_from_counts(self, triangle):
        paths = _route_paths(triangle, 9, 4)
        assert paths.shape == (triangle.indices.size, 5)
        assert np.count_nonzero(paths[:, 0] == 0) == 2  # degree of node 0

    def test_routes_match_per_hop_reference(self, ba_small, square_with_tail):
        """Every half-edge's route in the block is, byte for byte, the
        route of the per-hop permutation lookup."""
        for graph in (ba_small, square_with_tail):
            paths = _route_paths(graph, 12, 12)
            perms = route_permutations(graph, seed=12)
            row = 0
            for source in range(graph.num_nodes):
                for nbr in graph.neighbors(source):
                    slow = _reference_route(perms, graph, source, int(nbr), 12)
                    assert paths[row].dtype == slow.dtype
                    assert paths[row].tobytes() == slow.tobytes()
                    row += 1
            assert row == paths.shape[0]

    def test_next_hop_matches_permutation_reference(self, ba_small):
        """A route over ``prev -> node`` leaves ``node`` on the edge its
        permutation maps the entry edge to, for every half-edge."""
        paths = _route_paths(ba_small, 13, 2)
        perms = route_permutations(ba_small, seed=13)
        for prev, node, nxt in paths:
            nbrs = ba_small.neighbors(int(node))
            enter = int(np.searchsorted(nbrs, prev))
            assert nxt == int(nbrs[int(perms[int(node)][enter])])
