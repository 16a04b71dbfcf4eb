"""Unit tests for core-structure statistics (Figures 2 and 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cores import core_structure, coreness_ecdf
from repro.errors import GraphError
from repro.generators import barbell_graph, complete_graph, cycle_graph
from repro.graph import Graph


class TestEcdf:
    def test_regular_graph_single_step(self, k5):
        values, fractions = coreness_ecdf(k5)
        assert np.array_equal(values, [4])
        assert np.array_equal(fractions, [1.0])

    def test_mixed_coreness(self, square_with_tail):
        values, fractions = coreness_ecdf(square_with_tail)
        assert np.array_equal(values, [1, 2])
        assert np.allclose(fractions, [2 / 6, 1.0])

    def test_monotone_and_normalized(self, ba_small):
        _, fractions = coreness_ecdf(ba_small)
        assert np.all(np.diff(fractions) > 0)
        assert fractions[-1] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            coreness_ecdf(Graph.empty())


class TestCoreStructure:
    def test_complete_graph(self):
        s = core_structure(complete_graph(5))
        assert s.degeneracy == 4
        assert np.allclose(s.node_fraction, 1.0)
        assert np.allclose(s.edge_fraction, 1.0)
        assert np.all(s.num_cores == 1)

    def test_fractions_monotone_decreasing(self, ba_small):
        s = core_structure(ba_small)
        assert np.all(np.diff(s.node_fraction) <= 1e-12)
        assert np.all(np.diff(s.edge_fraction) <= 1e-12)

    def test_k_zero_is_everything(self, square_with_tail):
        s = core_structure(square_with_tail)
        assert s.node_fraction[0] == 1.0
        assert s.edge_fraction[0] == 1.0

    def test_barbell_splits_at_top_core(self):
        """Two K5s joined by a path: the 4-core is two components."""
        g = barbell_graph(5, 3)
        s = core_structure(g)
        assert s.degeneracy == 4
        assert s.num_cores[4] == 2
        assert s.num_cores[1] == 1

    def test_cycle_structure(self):
        s = core_structure(cycle_graph(6))
        assert s.degeneracy == 2
        assert np.array_equal(s.num_cores, [1, 1, 1])

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            core_structure(Graph.empty())


class TestPaperClaim:
    """Figure 5's headline: fast mixers keep one core; slow mixers
    fragment into several."""

    def test_fast_analog_single_core_everywhere(self, tiny_wiki):
        s = core_structure(tiny_wiki)
        assert np.all(s.num_cores == 1)

    def test_slow_analog_fragments(self, tiny_physics):
        s = core_structure(tiny_physics)
        assert s.num_cores.max() > 3
