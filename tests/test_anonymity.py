"""Unit tests for the social-mix anonymity metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.anonymity import (
    anonymity_walk_length,
    entropy,
    walk_anonymity_profile,
)
from repro.errors import GraphError
from repro.generators import complete_graph


class TestEntropy:
    def test_uniform_is_log_n(self):
        assert entropy(np.full(8, 1 / 8)) == pytest.approx(np.log(8))

    def test_delta_is_zero(self):
        d = np.zeros(5)
        d[2] = 1.0
        assert entropy(d) == 0.0

    def test_invalid_distribution(self):
        with pytest.raises(GraphError):
            entropy(np.array([0.5, 0.6]))
        with pytest.raises(GraphError):
            entropy(np.array([]))


class TestProfile:
    def test_entropy_grows_with_walk_length(self, ba_small):
        profile = walk_anonymity_profile(
            ba_small, [1, 4, 16, 64], num_senders=15, seed=0
        )
        assert np.all(np.diff(profile.mean_entropy) > -1e-9)
        assert profile.normalized_entropy[-1] > 0.95

    def test_tvd_falls_as_entropy_rises(self, ba_small):
        profile = walk_anonymity_profile(ba_small, [1, 8, 32], num_senders=15, seed=1)
        assert profile.mean_tvd[0] > profile.mean_tvd[-1]

    def test_effective_set_size_bounds(self, ba_small):
        profile = walk_anonymity_profile(ba_small, [64], num_senders=10, seed=2)
        assert 1.0 <= profile.effective_set_size[0] <= ba_small.num_nodes

    def test_complete_graph_immediately_anonymous(self):
        g = complete_graph(20)
        profile = walk_anonymity_profile(g, [2, 5], num_senders=10)
        assert profile.normalized_entropy[-1] > 0.99

    def test_fast_beats_slow(self, tiny_wiki, tiny_physics):
        """The paper's anonymity motivation: fast mixers are better
        mix substrates at the same route length."""
        fast = walk_anonymity_profile(tiny_wiki, [10], num_senders=15, seed=3)
        slow = walk_anonymity_profile(tiny_physics, [10], num_senders=15, seed=3)
        assert fast.normalized_entropy[0] > slow.normalized_entropy[0]

    def test_invalid_lengths(self, ba_small):
        with pytest.raises(GraphError):
            walk_anonymity_profile(ba_small, [5, 3])


class TestWalkLengthTarget:
    def test_fast_graph_reaches_target(self, tiny_wiki):
        length = anonymity_walk_length(
            tiny_wiki, 0.9, max_length=80, num_senders=10, seed=0
        )
        assert length is not None
        assert length < 40

    def test_slow_graph_misses_target(self, tiny_physics):
        assert (
            anonymity_walk_length(
                tiny_physics, 0.95, max_length=30, num_senders=10, seed=0
            )
            is None
        )

    def test_invalid_target(self, ba_small):
        with pytest.raises(GraphError):
            anonymity_walk_length(ba_small, 0.0)
