"""Sequential-equivalence tests for the batched multi-source walk engine.

The batched engine must be a pure re-expression of the sequential
per-source evolution: every test here pins a batched result against the
one-matvec-at-a-time oracle — across chunk sizes, worker counts,
lazy/non-lazy chains and graphs with isolated nodes — at ``atol=1e-12``
(most paths are bit-identical and asserted as such).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import oracles
from repro.errors import GraphError
from repro.generators import barabasi_albert, path_graph, star_graph
from repro.graph import Graph, ShardedGraph
from repro.markov import (
    batched_tvd_profile,
    delta_block,
    evolve_block,
    stationary_distribution,
    total_variation_distance,
    transition_matrix,
)
from repro.mixing import sampled_mixing_profile
from repro.parallel import execution


@pytest.fixture
def with_isolated() -> Graph:
    """A triangle plus two isolated (degree-0, self-absorbing) nodes."""
    return Graph.from_edges([(0, 1), (1, 2), (0, 2)], num_nodes=5)


def _sequential_block(matrix, sources, steps: int) -> np.ndarray:
    """Oracle: evolve each source independently with single matvecs."""
    out = np.empty((matrix.shape[0], len(sources)))
    for j, source in enumerate(sources):
        dist = np.zeros(matrix.shape[0])
        dist[source] = 1.0
        for _ in range(steps):
            dist = matrix.T @ dist
        out[:, j] = dist
    return out


class TestDeltaBlock:
    def test_columns_are_deltas(self, k5):
        block = delta_block(5, [0, 2, 4])
        assert block.shape == (5, 3)
        for j, source in enumerate([0, 2, 4]):
            expected = np.zeros(5)
            expected[source] = 1.0
            assert np.array_equal(block[:, j], expected)

    def test_duplicate_sources_allowed(self):
        block = delta_block(4, [1, 1])
        assert np.array_equal(block[:, 0], block[:, 1])

    def test_empty_sources_rejected(self):
        with pytest.raises(GraphError):
            delta_block(4, [])

    def test_out_of_range_sources_rejected(self):
        with pytest.raises(GraphError):
            delta_block(4, [0, 4])
        with pytest.raises(GraphError):
            delta_block(4, [-1])


class TestEvolveManyEquivalence:
    """``evolve_block`` moves many columns at once, bit for bit like the
    per-column oracle, through a matrix or through the graph itself."""

    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("steps", [0, 1, 3, 7])
    def test_matches_sequential_evolve(self, ba_small, lazy, steps):
        matrix = transition_matrix(ba_small, lazy=lazy)
        sources = list(range(0, ba_small.num_nodes, 17))
        block = delta_block(ba_small.num_nodes, sources)
        oracle = _sequential_block(matrix, sources, steps)
        chains = [matrix] if lazy else [matrix, ba_small]
        for chain in chains:
            batched = evolve_block(chain, block, steps)
            np.testing.assert_allclose(batched, oracle, atol=1e-12)
            assert batched.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("chunk_size", [1, 2, 5, 64, 1000])
    def test_chunk_sizes_equivalent(self, ba_small, chunk_size):
        # a schedule scope never splits or changes the block product
        sources = list(range(40))
        oracle = _sequential_block(transition_matrix(ba_small), sources, 5)
        block = delta_block(ba_small.num_nodes, sources)
        with execution(chunk_size=chunk_size):
            batched = evolve_block(ba_small, block, 5)
        assert batched.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_counts_equivalent(self, ba_small, workers):
        sources = list(range(40))
        oracle = _sequential_block(transition_matrix(ba_small), sources, 5)
        block = delta_block(ba_small.num_nodes, sources)
        with execution(chunk_size=7, workers=workers):
            batched = evolve_block(ba_small, block, 5)
        assert batched.tobytes() == oracle.tobytes()

    def test_isolated_nodes_equivalent(self, with_isolated):
        matrix = transition_matrix(with_isolated)
        sources = [0, 3, 4]
        oracle = _sequential_block(matrix, sources, 4)
        block = delta_block(with_isolated.num_nodes, sources)
        for chain in (matrix, with_isolated):
            batched = evolve_block(chain, block, 4)
            assert batched.tobytes() == oracle.tobytes()
            # isolated sources are absorbing: the delta never moves
            assert np.array_equal(batched[:, 1], block[:, 1])

    def test_preserves_probability_mass(self, ba_small):
        block = delta_block(ba_small.num_nodes, list(range(25)))
        evolved = evolve_block(ba_small, block, 10)
        np.testing.assert_allclose(evolved.sum(axis=0), 1.0, atol=1e-9)

    def test_bad_block_shape_rejected(self, k5):
        for chain in (k5, transition_matrix(k5)):
            with pytest.raises(GraphError):
                evolve_block(chain, np.zeros((4, 3)))
            with pytest.raises(GraphError):
                evolve_block(chain, np.zeros(5))

    def test_negative_steps_rejected(self, k5):
        with pytest.raises(GraphError):
            evolve_block(k5, delta_block(5, [0]), steps=-1)

    def test_bad_chunk_and_workers_rejected(self, k5):
        block = delta_block(5, [0, 1])
        with pytest.raises(GraphError):
            with execution(chunk_size=0):
                evolve_block(k5, block, 1)
        with pytest.raises(GraphError):
            with execution(workers=0):
                evolve_block(k5, block, 1)


class TestBatchedTvdProfile:
    @pytest.mark.parametrize("chunk_size", [None, 1, 3, 100])
    def test_matches_sequential_tvd(self, ba_small, chunk_size):
        matrix = transition_matrix(ba_small)
        pi = stationary_distribution(ba_small)
        sources = list(range(0, ba_small.num_nodes, 23))
        lengths = [0, 1, 2, 4, 8, 16]
        with execution(chunk_size=chunk_size):
            tvd = batched_tvd_profile(matrix, pi, sources, lengths)
        for j, source in enumerate(sources):
            dist = np.zeros(ba_small.num_nodes)
            dist[source] = 1.0
            step = 0
            for col, target in enumerate(lengths):
                for _ in range(target - step):
                    dist = matrix.T @ dist
                step = target
                expected = total_variation_distance(dist, pi)
                assert tvd[j, col] == expected

    def test_non_integer_sources_rejected(self, k5):
        # a cast would silently truncate 3.99 to node 3
        matrix, pi = transition_matrix(k5), stationary_distribution(k5)
        for bad in ([3.99], [1.7]):
            with pytest.raises(GraphError, match="integer dtype, got float64"):
                batched_tvd_profile(matrix, pi, bad, [1, 2])
        with pytest.raises(GraphError, match="node ids"):
            batched_tvd_profile(matrix, pi, [5], [1, 2])
        empty = batched_tvd_profile(matrix, pi, np.array([]), [1])
        assert empty.shape == (0, 1)

    @pytest.mark.parametrize("kind", ["matrix", "sharded"])
    def test_stationary_shape_checked_before_dispatch(self, k5, tmp_path, kind):
        chain = (
            transition_matrix(k5) if kind == "matrix"
            else ShardedGraph.from_graph(k5, tmp_path / "k5", num_shards=2)
        )
        with pytest.raises(GraphError, match=r"stationary must have shape \(5,\)"):
            batched_tvd_profile(chain, stationary_distribution(k5)[:4], [0, 1], [1, 2])

    def test_walk_length_zero_is_delta_tvd(self, k5):
        pi = stationary_distribution(k5)
        tvd = batched_tvd_profile(k5, pi, [0], [0])
        expected = total_variation_distance(delta_block(5, [0])[:, 0], pi)
        assert tvd[0, 0] == expected

    def test_invalid_lengths_rejected(self, k5):
        pi = stationary_distribution(k5)
        for bad in ([], [-1, 2], [3, 1], [2, 2]):
            with pytest.raises(GraphError):
                batched_tvd_profile(k5, pi, [0], bad)


class TestStrategyEquivalence:
    """sampled_mixing_profile(batched) against the sequential oracle."""

    GRAPHS = {
        "ba": lambda: barabasi_albert(150, 3, seed=1),
        "path": lambda: path_graph(30),
        "star": lambda: star_graph(20),
        "isolated": lambda: Graph.from_edges(
            [(0, 1), (1, 2), (0, 2), (3, 4)], num_nodes=6
        ),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("lazy", [False, True])
    def test_tvd_matrix_identical(self, name, lazy):
        graph = self.GRAPHS[name]()
        lengths = [0, 1, 2, 3, 5, 8]
        kwargs = dict(walk_lengths=lengths, num_sources=12, lazy=lazy, seed=9)
        seq = oracles.sampled_mixing_profile(graph, **kwargs)
        bat = sampled_mixing_profile(graph, **kwargs)
        assert np.array_equal(seq.sources, bat.sources)
        np.testing.assert_allclose(bat.tvd, seq.tvd, atol=1e-12)
        assert bat.tvd.tobytes() == seq.tvd.tobytes()

    @pytest.mark.parametrize("chunk_size,workers", [(1, None), (5, None), (4, 2), (3, 4)])
    def test_chunked_and_threaded_identical(self, ba_small, chunk_size, workers):
        kwargs = dict(walk_lengths=[1, 2, 4, 8], num_sources=30, seed=2)
        seq = oracles.sampled_mixing_profile(ba_small, **kwargs)
        with execution(chunk_size=chunk_size, workers=workers):
            bat = sampled_mixing_profile(ba_small, **kwargs)
        assert bat.tvd.tobytes() == seq.tvd.tobytes()

    def test_rows_align_with_sorted_sources(self, ba_small):
        """tvd rows must follow the (sorted) sources attribute even when
        explicit sources arrive unsorted."""
        lengths = [1, 3]
        unsorted = [42, 7, 99]
        profile = sampled_mixing_profile(ba_small, lengths, sources=unsorted)
        assert np.array_equal(profile.sources, [7, 42, 99])
        matrix, pi = transition_matrix(ba_small), stationary_distribution(ba_small)
        for row, source in enumerate(profile.sources):
            dist = matrix.T @ delta_block(ba_small.num_nodes, [source])[:, 0]
            assert profile.tvd[row, 0] == total_variation_distance(dist, pi)
