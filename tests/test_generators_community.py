"""Unit tests for community-structured generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GeneratorError
from repro.generators import community_social_graph
from repro.graph import num_connected_components
from repro.mixing import slem


class TestCommunitySocialGraph:
    def test_connected_even_with_tiny_bridge_fraction(self):
        g = community_social_graph(600, 6, 3, 0.005, seed=4)
        assert num_connected_components(g) == 1

    def test_node_count(self):
        g = community_social_graph(500, 7, 2, 0.05, seed=5)
        assert g.num_nodes == 500

    def test_bridge_fraction_controls_mixing(self):
        slow = community_social_graph(800, 8, 3, 0.005, seed=6)
        fast = community_social_graph(800, 2, 3, 0.3, seed=6)
        assert slem(slow) > slem(fast)

    def test_low_degree_periphery_exists(self):
        g = community_social_graph(600, 6, 3, 0.01, seed=7)
        assert np.count_nonzero(g.degrees <= 2) > 0.1 * g.num_nodes

    def test_too_small_communities_rejected(self):
        with pytest.raises(GeneratorError):
            community_social_graph(30, 10, 3, 0.1)  # 3 nodes per community

    def test_invalid_fraction(self):
        with pytest.raises(GeneratorError):
            community_social_graph(500, 5, 2, 1.5)
