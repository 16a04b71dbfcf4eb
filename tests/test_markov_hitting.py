"""Unit tests for hitting and commute times."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DisconnectedGraphError, GraphError
from repro.generators import (
    barabasi_albert,
    complete_graph,
    cycle_graph,
    path_graph,
)
from repro.graph import Graph
from repro.markov import (
    commute_time,
    effective_resistance,
    hitting_time,
    hitting_times_to,
)


class TestLaplacian:
    def test_matches_edge_loop_reference(self, ba_small, star10, triangle):
        """The CSR-vectorized Laplacian equals the per-edge loop it
        replaced, entry for entry."""
        from repro.markov.hitting import _laplacian

        for g in (ba_small, star10, triangle, path_graph(5), Graph.empty(4)):
            reference = np.zeros((g.num_nodes, g.num_nodes))
            for v in range(g.num_nodes):
                reference[v, v] = g.degree(v)
                for w in g.neighbors(v):
                    reference[v, int(w)] -= 1.0
            assert np.array_equal(_laplacian(g), reference)


class TestHittingTime:
    def test_complete_graph_closed_form(self):
        # K_n: H(u, v) = n - 1 for u != v
        for n in (4, 6, 9):
            assert hitting_time(complete_graph(n), 0, 1) == pytest.approx(n - 1)

    def test_path_endpoint_closed_form(self):
        # P_n (0..n-1): H(0, n-1) = (n-1)^2
        g = path_graph(6)
        assert hitting_time(g, 0, 5) == pytest.approx(25.0)

    def test_cycle_symmetry(self):
        g = cycle_graph(8)
        assert hitting_time(g, 0, 3) == pytest.approx(hitting_time(g, 3, 0))
        assert hitting_time(g, 0, 3) == pytest.approx(hitting_time(g, 1, 4))

    def test_self_hitting_zero(self):
        g = cycle_graph(5)
        assert hitting_times_to(g, 2)[2] == 0.0

    def test_all_targets_consistent(self, ba_small):
        times = hitting_times_to(ba_small, 0)
        assert times[0] == 0.0
        assert np.all(times[1:] > 0)

    def test_disconnected_rejected(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            hitting_times_to(g, 0)

    def test_monte_carlo_agreement(self):
        """Sampled first-hitting steps converge to the exact solve."""
        from repro.markov import NO_HIT, walk_first_hits

        g = cycle_graph(6)
        exact = hitting_time(g, 0, 2)
        target = np.arange(6) == 2
        samples = walk_first_hits(g, np.zeros(3000, dtype=np.int64), 200, target)
        assert not np.any(samples == NO_HIT)
        assert np.mean(samples) == pytest.approx(exact, rel=0.1)


class TestCommuteAndResistance:
    def test_path_resistance_is_distance(self):
        g = path_graph(7)
        assert effective_resistance(g, 1, 5) == pytest.approx(4.0)

    def test_parallel_edges_via_cycle(self):
        # C_4 between opposite nodes: two 2-edge paths in parallel -> R = 1
        g = cycle_graph(4)
        assert effective_resistance(g, 0, 2) == pytest.approx(1.0)

    def test_commute_equals_sum_of_hitting_times(self, ba_small):
        u, v = 3, 17
        expected = hitting_time(ba_small, u, v) + hitting_time(ba_small, v, u)
        assert commute_time(ba_small, u, v) == pytest.approx(expected, rel=1e-6)

    def test_self_resistance_zero(self, ba_small):
        assert effective_resistance(ba_small, 4, 4) == 0.0

    def test_triangle_inequality_of_resistance(self):
        g = barabasi_albert(60, 2, seed=1)
        r_ab = effective_resistance(g, 0, 10)
        r_bc = effective_resistance(g, 10, 20)
        r_ac = effective_resistance(g, 0, 20)
        assert r_ac <= r_ab + r_bc + 1e-9
