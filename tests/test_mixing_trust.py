"""Unit tests for trust-modulated random walks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.generators import barabasi_albert, complete_graph
from repro.graph import Graph
from repro.mixing import (
    ModulatedOperator,
    mixing_cost_of_trust,
    modulated_mixing_profile,
    modulated_transition_matrix,
    slem,
)


class TestModulatedMatrix:
    def test_row_stochastic(self, ba_small):
        matrix = modulated_transition_matrix(ba_small, 0.3)
        rows = np.asarray(matrix.sum(axis=1)).ravel()
        assert np.allclose(rows, 1.0)

    def test_zero_trust_is_plain_walk(self, k5):
        from repro.markov import transition_matrix

        plain = transition_matrix(k5).toarray()
        modulated = modulated_transition_matrix(k5, 0.0).toarray()
        assert np.allclose(plain, modulated)

    def test_diagonal_equals_trust(self, k5):
        matrix = modulated_transition_matrix(k5, 0.4).toarray()
        assert np.allclose(np.diag(matrix), 0.4)

    def test_per_node_trust(self, triangle):
        alphas = np.array([0.0, 0.5, 0.9])
        matrix = modulated_transition_matrix(triangle, alphas).toarray()
        assert np.allclose(np.diag(matrix), alphas)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_invalid_trust(self, triangle):
        with pytest.raises(GraphError):
            modulated_transition_matrix(triangle, 1.0)
        with pytest.raises(GraphError):
            modulated_transition_matrix(triangle, -0.1)
        with pytest.raises(GraphError):
            modulated_transition_matrix(triangle, np.array([0.1, 0.2]))


class TestModulatedOperator:
    def test_uniform_trust_keeps_stationary(self, ba_small):
        """Uniform modulation is a lazy chain: same stationary dist."""
        from repro.markov import stationary_distribution

        op = ModulatedOperator.build(ba_small, 0.5)
        assert np.allclose(op.stationary, stationary_distribution(ba_small))

    def test_stationary_is_fixed_point_per_node_trust(self, ba_small):
        rng = np.random.default_rng(1)
        alphas = rng.uniform(0.0, 0.8, size=ba_small.num_nodes)
        op = ModulatedOperator.build(ba_small, alphas)
        evolved = op.matrix.T @ op.stationary
        assert np.allclose(evolved, op.stationary, atol=1e-12)

    def test_distribution_after(self, k5):
        from repro.markov import delta_block, evolve_block

        op = ModulatedOperator.build(k5, 0.2)
        dist = evolve_block(op.matrix, delta_block(5, [0]), 50)[:, 0]
        assert np.allclose(dist, op.stationary, atol=1e-9)

    def test_edgeless_rejected(self):
        with pytest.raises(GraphError):
            ModulatedOperator.build(Graph.empty(3), 0.2)


class TestMixingCost:
    def test_profile_decreases(self, ba_small):
        means = modulated_mixing_profile(
            ba_small, 0.3, [1, 5, 20, 60], num_sources=10, seed=0
        )
        assert means[0] > means[-1]
        assert means[-1] < 0.05

    def test_cost_grows_with_trust(self):
        g = barabasi_albert(300, 4, seed=2)
        costs = mixing_cost_of_trust(
            g, [0.0, 0.6], epsilon=0.1, max_length=150, num_sources=10, seed=0
        )
        assert costs[0.0] is not None
        assert costs[0.6] is not None
        assert costs[0.6] > costs[0.0]

    def test_cost_scaling_matches_theory(self):
        """T_alpha ~ T_0 / (1 - alpha) within loose tolerance."""
        g = barabasi_albert(300, 4, seed=3)
        costs = mixing_cost_of_trust(
            g, [0.0, 0.5], epsilon=0.05, max_length=200, num_sources=10, seed=0
        )
        ratio = costs[0.5] / costs[0.0]
        assert 1.5 < ratio < 3.0  # theory: 2.0

    def test_unmixed_returns_none(self):
        g = barabasi_albert(100, 3, seed=4)
        costs = mixing_cost_of_trust(
            g, [0.9], epsilon=1e-9, max_length=5, num_sources=5, seed=0
        )
        assert costs[0.9] is None

    def test_invalid_lengths(self, k5):
        with pytest.raises(GraphError):
            modulated_mixing_profile(k5, 0.1, [5, 2])
