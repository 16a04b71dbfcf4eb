"""Unit tests for BFS traversal and connectivity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NodeNotFoundError
from repro.graph import (
    Graph,
    bfs_distances,
    bfs_levels,
    connected_components,
    largest_component_nodes,
    num_connected_components,
)
from repro.graph.traversal import _gather_neighbors
from repro.generators import barabasi_albert, path_graph, star_graph


class TestBfsDistances:
    def test_path_distances(self, p10):
        dist = bfs_distances(p10, 0)
        assert np.array_equal(dist, np.arange(10))

    def test_path_from_middle(self, p10):
        dist = bfs_distances(p10, 5)
        assert dist[5] == 0
        assert dist[0] == 5
        assert dist[9] == 4

    def test_star_distances(self, star10):
        dist = bfs_distances(star10, 0)
        assert dist[0] == 0
        assert np.all(dist[1:] == 1)

    def test_unreachable_marked_minus_one(self):
        g = Graph.from_edges([(0, 1)], num_nodes=3)
        dist = bfs_distances(g, 0)
        assert dist[2] == -1

    def test_bad_source(self, triangle):
        with pytest.raises(NodeNotFoundError):
            bfs_distances(triangle, 9)

    def test_large_frontier_path_matches_small(self):
        """The vectorized gather (>64 frontier) agrees with slicing."""
        g = barabasi_albert(500, 5, seed=3)
        dist = bfs_distances(g, 0)
        # brute-force check on a second implementation
        import collections

        expected = np.full(g.num_nodes, -1)
        expected[0] = 0
        queue = collections.deque([0])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if expected[u] == -1:
                    expected[u] = expected[v] + 1
                    queue.append(int(u))
        assert np.array_equal(dist, expected)


class TestGatherNeighbors:
    """The small/large gather paths must agree at the 64-node boundary."""

    @pytest.mark.parametrize("frontier_size", [63, 64, 65])
    def test_paths_agree_at_boundary(self, frontier_size):
        g = barabasi_albert(200, 4, seed=9)
        frontier = np.arange(frontier_size, dtype=np.int64)
        gathered = _gather_neighbors(g.indptr, g.indices, frontier)
        expected = np.concatenate(
            [g.indices[g.indptr[v] : g.indptr[v + 1]] for v in frontier]
        )
        assert np.array_equal(gathered, expected)

    def test_large_frontier_with_degree_zero_nodes(self):
        """Isolated nodes contribute empty slices on the vectorized path."""
        g = Graph.from_edges([(0, 1), (1, 2)], num_nodes=100)
        frontier = np.arange(100, dtype=np.int64)
        gathered = _gather_neighbors(g.indptr, g.indices, frontier)
        assert np.array_equal(np.sort(gathered), [0, 1, 1, 2])

    def test_empty_frontier(self, star10):
        frontier = np.empty(0, dtype=np.int64)
        assert _gather_neighbors(star10.indptr, star10.indices, frontier).size == 0

    def test_all_degree_zero_large_frontier(self):
        g = Graph.empty(80)
        frontier = np.arange(80, dtype=np.int64)
        assert _gather_neighbors(g.indptr, g.indices, frontier).size == 0

    def test_duplicate_frontier_nodes_repeat_neighbors(self, star10):
        frontier = np.array([0, 0], dtype=np.int64)
        gathered = _gather_neighbors(star10.indptr, star10.indices, frontier)
        assert gathered.size == 2 * star10.degrees[0]


class TestBfsWithIsolatedNodes:
    def test_isolated_source_reaches_only_itself(self):
        g = Graph.from_edges([(0, 1)], num_nodes=4)
        dist = bfs_distances(g, 3)
        assert np.array_equal(dist, [-1, -1, -1, 0])

    def test_isolated_nodes_stay_unreached(self):
        g = Graph.from_edges([(0, 1), (1, 2)], num_nodes=6)
        dist = bfs_distances(g, 0)
        assert np.array_equal(dist, [0, 1, 2, -1, -1, -1])

    def test_levels_skip_isolated_nodes(self):
        g = Graph.from_edges([(0, 1), (1, 2)], num_nodes=5)
        levels = bfs_levels(g, 0)
        assert np.array_equal(np.concatenate(levels), [0, 1, 2])


class TestBfsLevels:
    def test_levels_partition_reachable_nodes(self, ba_small):
        levels = bfs_levels(ba_small, 0)
        seen = np.concatenate(levels)
        assert np.array_equal(np.sort(seen), np.arange(ba_small.num_nodes))

    def test_levels_match_distances(self, p10):
        levels = bfs_levels(p10, 0)
        dist = bfs_distances(p10, 0)
        for i, level in enumerate(levels):
            assert np.all(dist[level] == i)

    def test_isolated_source(self):
        g = Graph.empty(3)
        levels = bfs_levels(g, 1)
        assert len(levels) == 1
        assert np.array_equal(levels[0], [1])


class TestComponents:
    def test_connected_graph_single_component(self, triangle):
        labels = connected_components(triangle)
        assert np.all(labels == 0)
        assert num_connected_components(triangle) == 1

    def test_two_components(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        labels = connected_components(g)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]
        assert num_connected_components(g) == 2

    def test_isolated_nodes_count_as_components(self):
        g = Graph.from_edges([(0, 1)], num_nodes=4)
        assert num_connected_components(g) == 3

    def test_empty_graph(self):
        g = Graph.empty()
        assert num_connected_components(g) == 0

    def test_largest_component_nodes(self):
        g = Graph.from_edges([(0, 1), (1, 2), (3, 4)], num_nodes=5)
        assert np.array_equal(largest_component_nodes(g), [0, 1, 2])

    def test_path_is_connected(self):
        assert num_connected_components(path_graph(50)) == 1

    def test_labels_numbered_by_smallest_node_id(self):
        """Component ids follow the order of each component's smallest
        member, regardless of edge order."""
        g = Graph.from_edges([(5, 6), (0, 1), (3, 4)], num_nodes=7)
        labels = connected_components(g)
        assert labels[0] == labels[1] == 0
        assert labels[2] == 1  # the isolated node comes next by id
        assert labels[3] == labels[4] == 2
        assert labels[5] == labels[6] == 3

    def test_label_first_occurrences_are_sorted(self):
        g = Graph.from_edges(
            [(9, 2), (8, 1), (7, 0), (3, 4)], num_nodes=10
        )
        labels = connected_components(g)
        first_seen = [int(np.argmax(labels == c)) for c in range(labels.max() + 1)]
        assert first_seen == sorted(first_seen)
