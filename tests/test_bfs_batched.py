"""Sequential-equivalence tests for the batched multi-source BFS engine.

The block engine must be a pure re-expression of the per-source BFS:
every test pins a batched result byte-identical against the per-source
oracle in :mod:`repro.oracles` — across chunk sizes, worker counts,
disconnected graphs, isolated and duplicate sources — and the consumers
(envelope expansion, ticket plans)
are pinned the same way against their oracles.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import oracles
from repro.chunking import validate_sources
from repro.errors import GraphError, SybilDefenseError
from repro.expansion import envelope_expansion
from repro.generators import (
    barabasi_albert,
    complete_graph,
    path_graph,
    star_graph,
)
from repro.graph import (
    Graph,
    bfs_distances,
    bfs_distances_block,
    bfs_level_sizes_block,
)
from repro.parallel import execution
from repro.sybil import TicketPlan, ticket_plans

CHUNK_SIZES = [1, 2, 5, 64, 1000]
WORKER_COUNTS = [1, 2, 4]


@pytest.fixture
def with_isolated() -> Graph:
    """A triangle plus two isolated (degree-0) nodes."""
    return Graph.from_edges([(0, 1), (1, 2), (0, 2)], num_nodes=5)


@pytest.fixture
def two_components() -> Graph:
    """A 4-cycle and a path, plus one isolated node."""
    return Graph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)], num_nodes=8
    )


class TestValidateSources:
    def test_returns_int64(self):
        assert validate_sources(5, [0, 2]).dtype == np.int64

    def test_duplicates_allowed(self):
        assert np.array_equal(validate_sources(5, [3, 3, 1]), [3, 3, 1])

    def test_empty_rejected(self):
        assert validate_sources(5, []).size == 0  # legal for the walk engine
        with pytest.raises(GraphError, match="non-empty"):
            bfs_distances_block(complete_graph(5), [])
        with pytest.raises(GraphError, match="non-empty"):
            bfs_level_sizes_block(complete_graph(5), np.array([], dtype=float))

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            validate_sources(5, [0, 5])
        with pytest.raises(GraphError):
            validate_sources(5, [-1])

    def test_non_integer_rejected(self):
        # a cast would silently truncate 0.9 to node 0
        for run in (bfs_distances_block, bfs_level_sizes_block):
            with pytest.raises(GraphError, match="integer dtype, got float64"):
                run(complete_graph(5), np.array([0.9]))
            with pytest.raises(GraphError, match="integer dtype"):
                run(complete_graph(5), [1.7])


class TestDistancesBlockEquivalence:
    def test_matches_sequential(self, ba_small):
        sources = list(range(0, ba_small.num_nodes, 13))
        block = bfs_distances_block(ba_small, sources)
        oracle = oracles.bfs_distances_block(ba_small, sources)
        assert block.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_chunk_sizes_equivalent(self, ba_small, chunk_size):
        sources = list(range(40))
        oracle = oracles.bfs_distances_block(ba_small, sources)
        with execution(chunk_size=chunk_size):
            block = bfs_distances_block(ba_small, sources)
        assert block.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_worker_counts_equivalent(self, ba_small, workers):
        sources = list(range(40))
        oracle = oracles.bfs_distances_block(ba_small, sources)
        with execution(chunk_size=7, workers=workers):
            block = bfs_distances_block(ba_small, sources)
        assert block.tobytes() == oracle.tobytes()

    def test_isolated_source_row(self, with_isolated):
        block = bfs_distances_block(with_isolated, [0, 3])
        assert np.array_equal(block[0], [0, 1, 1, -1, -1])
        assert np.array_equal(block[1], [-1, -1, -1, 0, -1])

    def test_disconnected_graph(self, two_components):
        sources = list(range(two_components.num_nodes))
        block = bfs_distances_block(two_components, sources)
        oracle = oracles.bfs_distances_block(two_components, sources)
        assert block.tobytes() == oracle.tobytes()

    def test_duplicate_sources_identical_rows(self, ba_small):
        block = bfs_distances_block(ba_small, [5, 5, 5])
        assert np.array_equal(block[0], block[1])
        assert np.array_equal(block[0], block[2])
        assert np.array_equal(block[0], bfs_distances(ba_small, 5))

    def test_bad_sources_rejected(self, k5):
        with pytest.raises(GraphError):
            bfs_distances_block(k5, [])
        with pytest.raises(GraphError):
            bfs_distances_block(k5, [5])

    def test_bad_chunk_and_workers_rejected(self, k5):
        with pytest.raises(GraphError):
            with execution(chunk_size=0):
                bfs_distances_block(k5, [0])
        with pytest.raises(GraphError):
            with execution(workers=0):
                bfs_distances_block(k5, [0])


class TestLevelSizesBlockEquivalence:
    def test_matches_sequential(self, ba_small):
        sources = list(range(0, ba_small.num_nodes, 13))
        block = bfs_level_sizes_block(ba_small, sources)
        oracle = oracles.bfs_level_sizes_block(ba_small, sources)
        assert block.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_chunk_worker_grid_equivalent(self, ba_small, chunk_size, workers):
        sources = list(range(40))
        oracle = oracles.bfs_level_sizes_block(ba_small, sources)
        with execution(chunk_size=chunk_size, workers=workers):
            block = bfs_level_sizes_block(ba_small, sources)
        assert block.tobytes() == oracle.tobytes()

    def test_rows_start_with_one_and_are_contiguous(self, two_components):
        block = bfs_level_sizes_block(
            two_components, list(range(two_components.num_nodes))
        )
        assert np.all(block[:, 0] == 1)
        for row in block:
            nonzero = np.flatnonzero(row)
            # level sets are contiguous: zeros only after the last level
            assert np.array_equal(nonzero, np.arange(nonzero.size))

    def test_isolated_source_row_is_single_level(self, with_isolated):
        block = bfs_level_sizes_block(with_isolated, [3, 0])
        assert np.array_equal(block[0], [1, 0])
        assert np.array_equal(block[1], [1, 2])

    def test_level_sizes_sum_to_reachable_count(self, two_components):
        block = bfs_level_sizes_block(
            two_components, list(range(two_components.num_nodes))
        )
        dist = bfs_distances_block(
            two_components, list(range(two_components.num_nodes))
        )
        assert np.array_equal(block.sum(axis=1), (dist >= 0).sum(axis=1))

    @pytest.mark.parametrize("max_levels", [0, 1, 2, 3])
    def test_max_levels_is_prefix_of_full_run(self, ba_small, max_levels):
        sources = list(range(30))
        full = bfs_level_sizes_block(ba_small, sources)
        capped = bfs_level_sizes_block(ba_small, sources, max_levels=max_levels)
        width = min(full.shape[1], max_levels + 1)
        assert capped.shape[1] <= max_levels + 1
        assert np.array_equal(capped[:, :width], full[:, :width])

    def test_negative_max_levels_rejected(self, k5):
        with pytest.raises(GraphError):
            bfs_level_sizes_block(k5, [0], max_levels=-1)

    def test_named_graph_shapes(self):
        star = bfs_level_sizes_block(star_graph(6), [0, 1])
        assert np.array_equal(star, [[1, 6, 0], [1, 1, 5]])
        clique = bfs_level_sizes_block(complete_graph(5), [2])
        assert np.array_equal(clique, [[1, 4]])
        path = bfs_level_sizes_block(path_graph(4), [0])
        assert np.array_equal(path, [[1, 1, 1, 1]])


class TestBlockBfsProperties:
    """Hypothesis: arbitrary (possibly disconnected) graphs with
    arbitrary (possibly duplicate) sources agree with the oracle."""

    @st.composite
    @staticmethod
    def graphs(draw, max_nodes: int = 12):
        n = draw(st.integers(min_value=1, max_value=max_nodes))
        edges = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=3 * n,
            )
        )
        return Graph.from_edges(edges, num_nodes=n)

    @given(graphs(), st.data())
    @settings(max_examples=80)
    def test_distances_match_oracle(self, g, data):
        sources = data.draw(
            st.lists(st.integers(0, g.num_nodes - 1), min_size=1, max_size=8)
        )
        chunk_size = data.draw(st.sampled_from([None, 1, 3]))
        with execution(chunk_size=chunk_size):
            block = bfs_distances_block(g, sources)
        oracle = oracles.bfs_distances_block(g, sources)
        assert block.tobytes() == oracle.tobytes()

    @given(graphs(), st.data())
    @settings(max_examples=80)
    def test_level_sizes_match_oracle(self, g, data):
        sources = data.draw(
            st.lists(st.integers(0, g.num_nodes - 1), min_size=1, max_size=8)
        )
        chunk_size = data.draw(st.sampled_from([None, 1, 3]))
        with execution(chunk_size=chunk_size):
            block = bfs_level_sizes_block(g, sources)
        oracle = oracles.bfs_level_sizes_block(g, sources)
        assert block.tobytes() == oracle.tobytes()

    @given(graphs())
    @settings(max_examples=60)
    def test_envelope_strategies_agree(self, g):
        seq = oracles.envelope_expansion(g)
        bat = envelope_expansion(g)
        assert np.array_equal(seq.sources, bat.sources)
        assert bat.set_sizes.tobytes() == seq.set_sizes.tobytes()
        assert bat.neighbor_counts.tobytes() == seq.neighbor_counts.tobytes()


class TestEnvelopeStrategyEquivalence:
    GRAPHS = {
        "ba": lambda: barabasi_albert(150, 3, seed=1),
        "path": lambda: path_graph(30),
        "star": lambda: star_graph(20),
        "isolated": lambda: Graph.from_edges(
            [(0, 1), (1, 2), (0, 2), (3, 4)], num_nodes=6
        ),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_measurement_identical(self, name):
        graph = self.GRAPHS[name]()
        seq = oracles.envelope_expansion(graph)
        bat = envelope_expansion(graph)
        assert np.array_equal(seq.sources, bat.sources)
        assert bat.set_sizes.tobytes() == seq.set_sizes.tobytes()
        assert bat.neighbor_counts.tobytes() == seq.neighbor_counts.tobytes()

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_chunk_worker_grid_identical(self, ba_small, chunk_size, workers):
        kwargs = dict(num_sources=40, seed=2)
        seq = oracles.envelope_expansion(ba_small, **kwargs)
        with execution(chunk_size=chunk_size, workers=workers):
            bat = envelope_expansion(ba_small, **kwargs)
        assert np.array_equal(seq.sources, bat.sources)
        assert bat.set_sizes.tobytes() == seq.set_sizes.tobytes()
        assert bat.neighbor_counts.tobytes() == seq.neighbor_counts.tobytes()

    @pytest.mark.parametrize("max_radius", [1, 2, 5])
    def test_max_radius_identical(self, ba_small, max_radius):
        kwargs = dict(num_sources=25, seed=3, max_radius=max_radius)
        seq = oracles.envelope_expansion(ba_small, **kwargs)
        bat = envelope_expansion(ba_small, **kwargs)
        assert bat.set_sizes.tobytes() == seq.set_sizes.tobytes()
        assert bat.neighbor_counts.tobytes() == seq.neighbor_counts.tobytes()

    def test_unknown_strategy_rejected(self, k5):
        # the oracle lives in repro.oracles; the measurement has no knob
        with pytest.raises(TypeError):
            envelope_expansion(k5, strategy="sequential")


class TestTicketPlanBatching:
    def test_plans_match_per_source_bfs(self, ba_small):
        sources = [0, 7, 7, 42]
        plans = ticket_plans(ba_small, sources)
        assert [p.source for p in plans] == sources
        for plan, source in zip(plans, sources):
            oracle = TicketPlan(ba_small, source)
            assert plan.distances.tobytes() == oracle.distances.tobytes()

    def test_plan_runs_identically(self, ba_small):
        (plan,) = ticket_plans(ba_small, [11])
        oracle = TicketPlan(ba_small, 11).run(64.0)
        result = plan.run(64.0)
        assert result.node_tickets.tobytes() == oracle.node_tickets.tobytes()
        assert np.array_equal(result.reached, oracle.reached)
        assert result.edge_tickets == oracle.edge_tickets

    def test_wrong_shape_distances_rejected(self, ba_small):
        with pytest.raises(SybilDefenseError):
            TicketPlan(ba_small, 0, distances=np.zeros(3, dtype=np.int64))

    def test_empty_sources_rejected(self, ba_small):
        with pytest.raises(SybilDefenseError):
            ticket_plans(ba_small, [])
