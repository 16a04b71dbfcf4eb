"""Unit tests for the transition matrix, the stationary distribution and
the plain and lazy chains stepped through :func:`evolve_block`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import Graph
from repro.markov import (
    delta_block,
    evolve_block,
    stationary_distribution,
    transition_matrix,
)


def _after(chain, n: int, start, steps: int) -> np.ndarray:
    """The walk distribution after ``steps`` steps from a node or vector."""
    if isinstance(start, (int, np.integer)):
        block = delta_block(n, [start])
    else:
        block = np.asarray(start, dtype=float)[:, None]
    return evolve_block(chain, block, steps)[:, 0]


class TestTransitionMatrix:
    def test_row_stochastic(self, ba_small):
        matrix = transition_matrix(ba_small)
        rows = np.asarray(matrix.sum(axis=1)).ravel()
        assert np.allclose(rows, 1.0)

    def test_entries_match_definition(self, square_with_tail):
        matrix = transition_matrix(square_with_tail).toarray()
        # node 0 has degree 3: neighbors 1, 3, 4
        assert matrix[0, 1] == pytest.approx(1 / 3)
        assert matrix[0, 3] == pytest.approx(1 / 3)
        assert matrix[0, 4] == pytest.approx(1 / 3)
        assert matrix[0, 2] == 0.0

    def test_lazy_chain(self, triangle):
        lazy = transition_matrix(triangle, lazy=True).toarray()
        assert np.allclose(np.diag(lazy), 0.5)
        rows = lazy.sum(axis=1)
        assert np.allclose(rows, 1.0)

    def test_isolated_nodes_absorbing(self):
        g = Graph.from_edges([(0, 1)], num_nodes=3)
        matrix = transition_matrix(g).toarray()
        assert matrix[2, 2] == 1.0

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            transition_matrix(Graph.empty())


class TestStationaryDistribution:
    def test_proportional_to_degree(self, square_with_tail):
        pi = stationary_distribution(square_with_tail)
        degrees = square_with_tail.degrees
        assert np.allclose(pi, degrees / degrees.sum())

    def test_sums_to_one(self, ba_small):
        assert stationary_distribution(ba_small).sum() == pytest.approx(1.0)

    def test_fixed_point(self, ba_small):
        """pi P = pi: the defining invariance."""
        pi = stationary_distribution(ba_small)
        evolved = _after(ba_small, ba_small.num_nodes, pi, 1)
        assert np.allclose(evolved, pi, atol=1e-12)

    def test_edgeless_rejected(self):
        with pytest.raises(GraphError):
            stationary_distribution(Graph.empty(3))


class TestOperator:
    """The plain walk (the graph itself) and the lazy chain (its matrix)."""

    def test_delta(self, triangle):
        d = delta_block(3, [1])[:, 0]
        assert d[1] == 1.0
        assert d.sum() == 1.0

    def test_evolution_preserves_mass(self, ba_small):
        dist = _after(ba_small, ba_small.num_nodes, 0, 5)
        assert dist.sum() == pytest.approx(1.0)
        assert np.all(dist >= 0)

    def test_distribution_after_zero_steps(self, triangle):
        assert np.array_equal(_after(triangle, 3, 2, 0), delta_block(3, [2])[:, 0])

    def test_distribution_after_accepts_array(self, triangle):
        uniform = np.full(3, 1 / 3)
        out = _after(triangle, 3, uniform, 3)
        # uniform is stationary on a regular graph
        assert np.allclose(out, uniform)

    def test_negative_steps_rejected(self, triangle):
        with pytest.raises(GraphError):
            _after(triangle, 3, 0, -1)

    def test_wrong_shape_rejected(self, triangle):
        with pytest.raises(GraphError):
            evolve_block(triangle, np.ones((5, 1)), 1)
        with pytest.raises(GraphError):
            evolve_block(triangle, np.ones(3), 1)

    def test_complete_graph_converges_in_one_step_from_uniform_neighbors(self):
        g = Graph.from_edges([(i, j) for i in range(4) for j in range(i + 1, 4)])
        dist = _after(g, 4, 0, 50)
        assert np.allclose(dist, 0.25, atol=1e-6)

    def test_bipartite_oscillates_without_laziness(self):
        g = Graph.from_edges([(0, 1)])
        d2 = _after(g, 2, 0, 2)
        assert d2[0] == pytest.approx(1.0)  # period 2

    def test_lazy_chain_converges_on_bipartite(self):
        g = Graph.from_edges([(0, 1)])
        dist = _after(transition_matrix(g, lazy=True), 2, 0, 60)
        assert np.allclose(dist, 0.5, atol=1e-6)


def test_clear_operator_cache_stays_importable():
    # perfbench imports it and calls it before each cold run
    from repro.markov import clear_operator_cache

    assert clear_operator_cache() is None
