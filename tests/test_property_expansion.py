"""Property-based tests for expansion measurement invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expansion import aggregate_by_set_size, envelope_expansion, source_expansion
from repro.graph import Graph, bfs_distances


def _neighborhood_size(graph: Graph, nodes: np.ndarray) -> int:
    """``|N(S)|`` by definition: nodes outside S adjacent to S."""
    members = np.zeros(graph.num_nodes, dtype=bool)
    members[nodes] = True
    seen = np.zeros(graph.num_nodes, dtype=bool)
    for v in nodes:
        seen[graph.neighbors(int(v))] = True
    return int(np.count_nonzero(seen & ~members))


@st.composite
def connected_graphs(draw, max_nodes: int = 16):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    return Graph.from_edges(edges + extra, num_nodes=n)


class TestSourceExpansionInvariants:
    @given(connected_graphs(), st.integers(0, 15))
    @settings(max_examples=80)
    def test_levels_sum_to_reachable(self, g, src):
        src = src % g.num_nodes
        result = source_expansion(g, src)
        assert result.level_sizes.sum() == g.num_nodes  # connected

    @given(connected_graphs(), st.integers(0, 15))
    @settings(max_examples=80)
    def test_frontier_is_true_neighborhood(self, g, src):
        """|Exp_i| computed from levels equals |N(Env_i)| computed from
        scratch (the two definitions in Section III-D agree)."""
        src = src % g.num_nodes
        dist = bfs_distances(g, src)
        result = source_expansion(g, src)
        for i, env_size in enumerate(result.envelope_sizes):
            envelope = np.flatnonzero((0 <= dist) & (dist <= i))
            assert envelope.size == env_size
            assert _neighborhood_size(g, envelope) == result.frontier_sizes[i]

    @given(connected_graphs(), st.integers(0, 15))
    @settings(max_examples=80)
    def test_expansion_factors_positive(self, g, src):
        src = src % g.num_nodes
        result = source_expansion(g, src)
        assert np.all(result.expansion_factors > 0)

    @given(connected_graphs(), st.integers(0, 15))
    @settings(max_examples=80)
    def test_frontier_bounded_by_degree_sum(self, g, src):
        """|N(S)| can never exceed the total degree of S."""
        src = src % g.num_nodes
        dist = bfs_distances(g, src)
        result = source_expansion(g, src)
        for i in range(result.envelope_sizes.size):
            envelope = np.flatnonzero((0 <= dist) & (dist <= i))
            assert result.frontier_sizes[i] <= g.degrees[envelope].sum()


class TestAggregationInvariants:
    @given(connected_graphs())
    @settings(max_examples=60)
    def test_aggregate_consistency(self, g):
        meas = envelope_expansion(g)
        summary = aggregate_by_set_size(meas)
        assert np.all(summary.minimum <= summary.mean + 1e-9)
        assert np.all(summary.mean <= summary.maximum + 1e-9)
        assert summary.count.sum() == meas.set_sizes.size
        assert np.all(np.diff(summary.set_sizes) > 0)
