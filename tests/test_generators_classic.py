"""Unit tests for classic random graph models."""

from __future__ import annotations

import pytest

from repro.errors import GeneratorError
from repro.generators import barabasi_albert, powerlaw_cluster_mixed
from repro.graph import average_clustering, num_connected_components


class TestBarabasiAlbert:
    def test_edge_count(self):
        n, m = 300, 3
        g = barabasi_albert(n, m, seed=0)
        seed_edges = m * (m + 1) // 2
        assert g.num_edges == seed_edges + (n - m - 1) * m

    def test_connected(self):
        assert num_connected_components(barabasi_albert(200, 2, seed=1)) == 1

    def test_heavy_tail(self):
        g = barabasi_albert(1000, 3, seed=2)
        assert g.degrees.max() > 5 * g.degrees.mean()

    def test_min_degree_is_attachment(self):
        g = barabasi_albert(200, 4, seed=3)
        assert g.degrees.min() == 4

    def test_invalid_params(self):
        with pytest.raises(GeneratorError):
            barabasi_albert(5, 5)
        with pytest.raises(GeneratorError):
            barabasi_albert(10, 0)


class TestPowerlawClusterMixed:
    def test_degree_spread(self):
        g = powerlaw_cluster_mixed(800, 1, 12, seed=7)
        # variable attachment should produce degree-1 periphery and hubs
        assert g.degrees.min() <= 2
        assert g.degrees.max() > 20

    def test_connected(self):
        g = powerlaw_cluster_mixed(400, 1, 9, seed=8)
        assert num_connected_components(g) == 1

    def test_triads_raise_clustering(self):
        low = powerlaw_cluster_mixed(500, 1, 9, triad_probability=0.0, seed=9)
        high = powerlaw_cluster_mixed(500, 1, 9, triad_probability=0.9, seed=9)
        assert average_clustering(high) > average_clustering(low)

    def test_deterministic(self):
        a = powerlaw_cluster_mixed(200, 1, 6, seed=10)
        b = powerlaw_cluster_mixed(200, 1, 6, seed=10)
        assert a == b

    def test_invalid_ranges(self):
        with pytest.raises(GeneratorError):
            powerlaw_cluster_mixed(100, 0, 5)
        with pytest.raises(GeneratorError):
            powerlaw_cluster_mixed(100, 5, 3)
        with pytest.raises(GeneratorError):
            powerlaw_cluster_mixed(5, 1, 8)
