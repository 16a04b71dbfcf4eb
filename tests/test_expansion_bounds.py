"""Unit tests for conductance and sweep cuts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.expansion import conductance, fiedler_vector, sweep_cut_expansion
from repro.generators import barbell_graph, cycle_graph
from repro.mixing import slem


class TestConductance:
    def test_half_cycle(self):
        g = cycle_graph(8)
        phi = conductance(g, [0, 1, 2, 3])
        assert phi == pytest.approx(2 / 8)

    def test_barbell_clique_cut_is_sparse(self):
        g = barbell_graph(6, 0)
        phi = conductance(g, list(range(6)))
        assert phi < 0.05

    def test_full_or_empty_rejected(self, c7):
        with pytest.raises(GraphError):
            conductance(c7, [])
        with pytest.raises(GraphError):
            conductance(c7, list(range(7)))


class TestSpectralCut:
    def test_fiedler_splits_barbell(self):
        g = barbell_graph(6, 2)
        vector = fiedler_vector(g)
        left = set(np.flatnonzero(vector > 0).tolist())
        # one clique should be (mostly) on each side
        clique_a = set(range(6))
        clique_b = set(range(8, 14))
        a_side = len(left & clique_a)
        b_side = len(left & clique_b)
        assert (a_side >= 5 and b_side <= 1) or (a_side <= 1 and b_side >= 5)

    def test_sweep_cut_finds_bottleneck(self):
        g = barbell_graph(6, 0)
        cut, phi = sweep_cut_expansion(g)
        assert phi == conductance(g, cut)
        assert phi < 0.05

    def test_sweep_cut_satisfies_cheeger(self, ba_small):
        # Cheeger: gap / 2 <= phi <= sqrt(2 gap), with gap = 1 - SLEM
        gap = 1.0 - slem(ba_small)
        lower, upper = gap / 2.0, float(np.sqrt(2.0 * gap))
        _, phi = sweep_cut_expansion(ba_small)
        assert phi >= lower - 1e-9
        assert phi <= upper + 1e-9
