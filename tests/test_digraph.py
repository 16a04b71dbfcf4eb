"""Unit tests for the directed-graph substrate and chains."""

from __future__ import annotations

import numpy as np
import pytest

from repro.digraph import (
    DiGraph,
    directed_mixing_profile,
    directed_preferential_attachment,
    directed_stationary,
    directed_transition_matrix,
)
from repro.errors import GeneratorError, GraphError, NodeNotFoundError
from repro.generators import complete_graph


@pytest.fixture
def small_digraph():
    return DiGraph.from_arcs([(0, 1), (1, 2), (2, 0), (0, 2)])


class TestConstruction:
    def test_arc_counts(self, small_digraph):
        assert small_digraph.num_nodes == 3
        assert small_digraph.num_arcs == 4

    def test_direction_respected(self, small_digraph):
        assert small_digraph.has_arc(0, 1)
        assert not small_digraph.has_arc(1, 0)

    def test_self_loops_dropped(self):
        dg = DiGraph.from_arcs([(0, 0), (0, 1)])
        assert dg.num_arcs == 1

    def test_duplicates_collapse(self):
        dg = DiGraph.from_arcs([(0, 1), (0, 1)])
        assert dg.num_arcs == 1

    def test_float_ids_rejected(self):
        # astype would build the arcs (0, 1) and (1, 2)
        with pytest.raises(GraphError, match="integer dtype, got float64"):
            DiGraph.from_arcs(np.array([[0, 1.7], [1, 2.2]]))

    def test_degrees(self, small_digraph):
        assert np.array_equal(small_digraph.out_degrees, [2, 1, 1])
        assert np.array_equal(small_digraph.in_degrees, [1, 1, 2])
        assert small_digraph.out_degree(0) == 2
        assert small_digraph.in_degree(2) == 2

    def test_successors_predecessors(self, small_digraph):
        assert np.array_equal(small_digraph.successors(0), [1, 2])
        assert np.array_equal(small_digraph.predecessors(2), [0, 1])

    def test_empty(self):
        dg = DiGraph.empty(4)
        assert dg.num_nodes == 4
        assert dg.num_arcs == 0

    def test_node_bounds(self, small_digraph):
        with pytest.raises(NodeNotFoundError):
            small_digraph.successors(9)

    def test_arc_array_round_trip(self, small_digraph):
        rebuilt = DiGraph.from_arcs(
            small_digraph.arc_array(), num_nodes=small_digraph.num_nodes
        )
        assert rebuilt == small_digraph

    def test_equality_and_repr(self, small_digraph):
        other = DiGraph.from_arcs([(0, 1), (1, 2), (2, 0), (0, 2)])
        assert small_digraph == other
        assert "num_arcs=4" in repr(small_digraph)


class TestConversions:
    def test_to_undirected_merges(self, small_digraph):
        und = small_digraph.to_undirected()
        assert und.num_edges == 3  # (0,2) and (2,0) merge

    def test_from_undirected_doubles(self):
        g = complete_graph(4)
        dg = DiGraph.from_undirected(g)
        assert dg.num_arcs == 2 * g.num_edges
        assert dg.reciprocity() == 1.0

    def test_reversed(self, small_digraph):
        rev = small_digraph.reversed()
        assert rev.has_arc(1, 0)
        assert not rev.has_arc(0, 1)
        assert rev.reversed() == small_digraph

    def test_reciprocity(self):
        dg = DiGraph.from_arcs([(0, 1), (1, 0), (1, 2)])
        assert dg.reciprocity() == pytest.approx(2 / 3)

    def test_reciprocity_empty_rejected(self):
        with pytest.raises(GraphError):
            DiGraph.empty(3).reciprocity()


class TestGenerators:
    def test_preferential_attachment_sizes(self):
        dg = directed_preferential_attachment(300, 3, reciprocity=0.2, seed=0)
        assert dg.num_nodes == 300
        assert dg.num_arcs >= 3 * (300 - 4)

    def test_reciprocity_knob(self):
        low = directed_preferential_attachment(300, 3, reciprocity=0.0, seed=1)
        high = directed_preferential_attachment(300, 3, reciprocity=0.9, seed=1)
        assert high.reciprocity() > low.reciprocity()

    def test_in_degree_tail(self):
        dg = directed_preferential_attachment(500, 3, seed=2)
        assert dg.in_degrees.max() > 4 * dg.in_degrees.mean()

    def test_invalid_params(self):
        with pytest.raises(GeneratorError):
            directed_preferential_attachment(5, 5)
        with pytest.raises(GeneratorError):
            directed_preferential_attachment(10, 2, reciprocity=1.5)


class TestChain:
    def test_transition_rows_stochastic(self):
        dg = directed_preferential_attachment(100, 3, seed=4)
        for damping in (1.0, 0.85):
            matrix = directed_transition_matrix(dg, damping=damping)
            rows = np.asarray(matrix.sum(axis=1)).ravel()
            assert np.allclose(rows, 1.0)

    def test_invalid_damping(self, small_digraph):
        with pytest.raises(GraphError):
            directed_transition_matrix(small_digraph, damping=0.0)

    def test_stationary_fixed_point(self):
        dg = directed_preferential_attachment(150, 3, seed=5)
        pi = directed_stationary(dg, damping=0.85)
        matrix = directed_transition_matrix(dg, damping=0.85)
        assert np.allclose(matrix.T @ pi, pi, atol=1e-9)
        assert pi.sum() == pytest.approx(1.0)

    def test_symmetric_digraph_stationary_matches_degree(self):
        """With damping=1 on a symmetrized digraph the stationary
        distribution is the undirected degree distribution."""
        g = complete_graph(6)
        dg = DiGraph.from_undirected(g)
        pi = directed_stationary(dg, damping=1.0)
        assert np.allclose(pi, 1 / 6, atol=1e-9)

    def test_mixing_profile_decreases(self):
        dg = directed_preferential_attachment(200, 4, reciprocity=0.3, seed=6)
        profile = directed_mixing_profile(dg, [1, 4, 16], num_sources=15, seed=0)
        assert profile[0] > profile[-1]
        assert profile[-1] < 0.1

    def test_mixing_profile_validates_lengths(self, small_digraph):
        with pytest.raises(GraphError):
            directed_mixing_profile(small_digraph, [4, 2])
