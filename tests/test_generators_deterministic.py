"""Unit tests for deterministic graph families."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GeneratorError
from repro.generators import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    lollipop_graph,
    path_graph,
    star_graph,
)
from repro.graph import bfs_distances_block, num_connected_components


class TestCycle:
    def test_sizes(self):
        g = cycle_graph(8)
        assert g.num_nodes == 8
        assert g.num_edges == 8
        assert np.all(g.degrees == 2)

    def test_too_small(self):
        with pytest.raises(GeneratorError):
            cycle_graph(2)


class TestPath:
    def test_sizes(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert g.degree(0) == 1
        assert g.degree(2) == 2

    def test_single_node(self):
        g = path_graph(1)
        assert g.num_nodes == 1
        assert g.num_edges == 0

    def test_invalid(self):
        with pytest.raises(GeneratorError):
            path_graph(0)


class TestComplete:
    def test_sizes(self):
        g = complete_graph(6)
        assert g.num_edges == 15
        assert np.all(g.degrees == 5)

    def test_single(self):
        assert complete_graph(1).num_edges == 0


class TestStar:
    def test_sizes(self):
        g = star_graph(4)
        assert g.num_nodes == 5
        assert g.num_edges == 4
        assert g.degree(0) == 4

    def test_invalid(self):
        with pytest.raises(GeneratorError):
            star_graph(0)


class TestGrid:
    def test_sizes(self):
        g = grid_graph(3, 4)
        assert g.num_nodes == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert num_connected_components(g) == 1

    def test_diameter(self):
        g = grid_graph(3, 3)
        assert bfs_distances_block(g, range(g.num_nodes)).max() == 4

    def test_degenerate_1x1(self):
        g = grid_graph(1, 1)
        assert g.num_nodes == 1
        assert g.num_edges == 0

    def test_invalid(self):
        with pytest.raises(GeneratorError):
            grid_graph(0, 5)


class TestBarbell:
    def test_structure(self):
        g = barbell_graph(4, 2)
        assert g.num_nodes == 10
        # two K4 (6 edges each) + path of 3 edges
        assert g.num_edges == 15
        assert num_connected_components(g) == 1

    def test_zero_path(self):
        g = barbell_graph(3, 0)
        assert g.num_nodes == 6
        assert num_connected_components(g) == 1
        assert g.num_edges == 7  # 3 + 3 + bridge

    def test_invalid_clique(self):
        with pytest.raises(GeneratorError):
            barbell_graph(2, 1)

    def test_invalid_path(self):
        with pytest.raises(GeneratorError):
            barbell_graph(3, -1)


class TestLollipop:
    def test_structure(self):
        g = lollipop_graph(4, 3)
        assert g.num_nodes == 7
        assert g.num_edges == 9
        assert num_connected_components(g) == 1
        assert g.degree(6) == 1

    def test_invalid(self):
        with pytest.raises(GeneratorError):
            lollipop_graph(2, 3)
