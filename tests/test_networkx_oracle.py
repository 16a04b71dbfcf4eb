"""Cross-checks against networkx as an independent oracle.

networkx is used ONLY here — the library itself never imports it.  These
tests feed the same random graphs to both implementations and demand
exact agreement on coreness, components, BFS distances, clustering and
modularity.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.community import greedy_modularity, modularity
from repro.cores import core_decomposition, core_structure
from repro.generators import barbell_graph, cycle_graph, path_graph, star_graph
from repro.graph import (
    Graph,
    average_clustering,
    bfs_distances,
    bfs_distances_block,
    bfs_level_sizes_block,
    connected_components,
    num_connected_components,
)
from repro.markov import delta_block, evolve_block
from repro.mixing import sampled_mixing_profile, slem
from repro.parallel import execution
from tests.helpers import erdos_renyi_gnm, planted_partition


def _random_pair(num_nodes: int, num_edges: int, seed: int):
    """Build the same graph in both libraries."""
    ours = erdos_renyi_gnm(num_nodes, num_edges, seed=seed)
    theirs = nx.Graph()
    theirs.add_nodes_from(range(num_nodes))
    theirs.add_edges_from(map(tuple, ours.edge_array().tolist()))
    return ours, theirs


PAIRS = [(30, 60, 0), (50, 80, 1), (40, 150, 2), (25, 30, 3), (60, 70, 4)]


class TestCorenessOracle:
    @pytest.mark.parametrize("n,m,seed", PAIRS)
    def test_matches_networkx(self, n, m, seed):
        ours, theirs = _random_pair(n, m, seed)
        expected = nx.core_number(theirs)
        coreness = core_decomposition(ours)
        for node, k in expected.items():
            assert coreness[node] == k

    @pytest.mark.parametrize("n,m,seed", PAIRS)
    def test_connected_core_counts(self, n, m, seed):
        ours, theirs = _random_pair(n, m, seed)
        structure = core_structure(ours)
        assert structure.degeneracy == max(nx.core_number(theirs).values())
        for k, count in zip(structure.ks, structure.num_cores):
            core = nx.k_core(theirs, int(k))
            assert count == nx.number_connected_components(core)
            assert structure.node_fraction[k] == core.number_of_nodes() / n


class TestComponentsOracle:
    @pytest.mark.parametrize("n,m,seed", PAIRS)
    def test_component_count(self, n, m, seed):
        ours, theirs = _random_pair(n, m, seed)
        assert num_connected_components(ours) == nx.number_connected_components(
            theirs
        )

    @pytest.mark.parametrize("n,m,seed", PAIRS)
    def test_component_membership(self, n, m, seed):
        ours, theirs = _random_pair(n, m, seed)
        labels = connected_components(ours)
        for component in nx.connected_components(theirs):
            nodes = sorted(component)
            assert np.unique(labels[nodes]).size == 1


class TestDistancesOracle:
    @pytest.mark.parametrize("n,m,seed", PAIRS)
    def test_bfs_distances(self, n, m, seed):
        ours, theirs = _random_pair(n, m, seed)
        dist = bfs_distances(ours, 0)
        expected = nx.single_source_shortest_path_length(theirs, 0)
        for node in range(n):
            if node in expected:
                assert dist[node] == expected[node]
            else:
                assert dist[node] == -1


class TestBfsBlockOracle:
    """The block BFS engine against networkx shortest-path lengths, on
    named graphs and the shared random pairs."""

    GRAPHS = {
        "path": (path_graph(9), nx.path_graph(9)),
        "cycle": (cycle_graph(8), nx.cycle_graph(8)),
        "barbell": (barbell_graph(5, 2), nx.barbell_graph(5, 2)),
        "star": (star_graph(7), nx.star_graph(7)),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_distances_block(self, name):
        ours, theirs = self.GRAPHS[name]
        sources = list(range(ours.num_nodes))
        block = bfs_distances_block(ours, sources)
        for j, source in enumerate(sources):
            expected = nx.single_source_shortest_path_length(theirs, source)
            for node in range(ours.num_nodes):
                assert block[j, node] == expected.get(node, -1)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_level_sizes_block(self, name):
        ours, theirs = self.GRAPHS[name]
        sources = list(range(ours.num_nodes))
        block = bfs_level_sizes_block(ours, sources)
        for j, source in enumerate(sources):
            lengths = nx.single_source_shortest_path_length(theirs, source)
            expected = np.bincount(
                list(lengths.values()), minlength=block.shape[1]
            )
            assert np.array_equal(block[j], expected)

    @pytest.mark.parametrize("n,m,seed", PAIRS)
    def test_distances_block_random_pairs(self, n, m, seed):
        ours, theirs = _random_pair(n, m, seed)
        sources = list(range(0, n, 3))
        with execution(chunk_size=4):
            block = bfs_distances_block(ours, sources)
        for j, source in enumerate(sources):
            expected = nx.single_source_shortest_path_length(theirs, source)
            for node in range(n):
                assert block[j, node] == expected.get(node, -1)


class TestClusteringOracle:
    @pytest.mark.parametrize("n,m,seed", PAIRS[:3])
    def test_average_clustering(self, n, m, seed):
        ours, theirs = _random_pair(n, m, seed)
        assert average_clustering(ours) == pytest.approx(
            nx.average_clustering(theirs), abs=1e-12
        )


class TestModularityOracle:
    @pytest.mark.parametrize("n,m,seed", PAIRS[:3])
    def test_modularity_value(self, n, m, seed):
        ours, theirs = _random_pair(n, m, seed)
        labels = greedy_modularity(ours, seed=seed)
        groups = [
            set(np.flatnonzero(labels == c).tolist())
            for c in np.unique(labels)
        ]
        assert modularity(ours, labels) == pytest.approx(
            nx.community.modularity(theirs, groups), abs=1e-12
        )

    def test_greedy_modularity_competitive_with_networkx(self):
        """Our one-level optimizer should land within 0.1 of networkx's
        greedy modularity on a community-structured graph."""
        ours = planted_partition(4, 20, 0.4, 0.02, seed=6)
        theirs = nx.Graph()
        theirs.add_nodes_from(range(ours.num_nodes))
        theirs.add_edges_from(map(tuple, ours.edge_array().tolist()))
        our_q = modularity(ours, greedy_modularity(ours, seed=6))
        their_partition = nx.community.greedy_modularity_communities(theirs)
        their_q = nx.community.modularity(theirs, their_partition)
        assert our_q > their_q - 0.1


class TestBatchedWalkOracle:
    """Batched t-step distributions against dense P^t rows derived from
    the networkx adjacency matrix on small named graphs."""

    GRAPHS = {
        "path": (path_graph(9), nx.path_graph(9)),
        "cycle": (cycle_graph(8), nx.cycle_graph(8)),
        "barbell": (barbell_graph(5, 2), nx.barbell_graph(5, 2)),
        "star": (star_graph(7), nx.star_graph(7)),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("steps", [0, 1, 2, 5, 9])
    def test_block_matches_dense_power(self, name, steps):
        ours, theirs = self.GRAPHS[name]
        A = np.asarray(nx.adjacency_matrix(theirs, nodelist=range(ours.num_nodes)).todense(), dtype=float)
        P = A / A.sum(axis=1, keepdims=True)
        Pt = np.linalg.matrix_power(P, steps)
        sources = list(range(ours.num_nodes))
        block = evolve_block(ours, delta_block(ours.num_nodes, sources), steps)
        # column j of the block is row sources[j] of P^t
        np.testing.assert_allclose(block.T, Pt, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_tvd_profile_matches_dense_power(self, name):
        ours, theirs = self.GRAPHS[name]
        A = np.asarray(nx.adjacency_matrix(theirs, nodelist=range(ours.num_nodes)).todense(), dtype=float)
        P = A / A.sum(axis=1, keepdims=True)
        pi = A.sum(axis=1) / A.sum()
        lengths = [0, 1, 3, 6]
        profile = sampled_mixing_profile(
            ours, walk_lengths=lengths, sources=list(range(ours.num_nodes))
        )
        for col, t in enumerate(lengths):
            Pt = np.linalg.matrix_power(P, t)
            expected = 0.5 * np.abs(Pt - pi).sum(axis=1)
            np.testing.assert_allclose(profile.tvd[:, col], expected, atol=1e-12)


class TestSpectralOracle:
    def test_slem_matches_numpy_eigendecomposition_of_nx_matrix(self):
        ours, theirs = _random_pair(40, 160, 7)
        assert nx.is_connected(theirs)
        P = np.asarray(
            nx.adjacency_matrix(theirs).todense(), dtype=float
        )
        P = P / P.sum(axis=1, keepdims=True)
        eigenvalues = np.sort(np.abs(np.linalg.eigvals(P)))[::-1]
        assert slem(ours) == pytest.approx(float(eigenvalues[1]), abs=1e-8)
