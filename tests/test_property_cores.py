"""Property-based tests for the core decomposition."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import oracles
from repro.cores import core_decomposition, core_structure
from repro.graph import Graph, induced_subgraph


@st.composite
def graphs(draw, max_nodes: int = 20):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    k = draw(st.integers(min_value=0, max_value=3 * n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=k,
            max_size=k,
        )
    )
    return Graph.from_edges(edges, num_nodes=n)


@st.composite
def pieced_graphs(draw):
    """Random blocks side by side plus isolated nodes, so G'_k may fall
    into several components at every k."""
    edges, offset = [], 0
    for size in draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)):
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                max_size=3 * size,
            )
        )
        edges += [(offset + u, offset + v) for u, v in pairs]
        offset += size
    return Graph.from_edges(edges, num_nodes=offset + draw(st.integers(0, 3)))


class TestCorenessInvariants:
    @given(graphs())
    @settings(max_examples=100)
    def test_coreness_bounded_by_degree(self, g):
        coreness = core_decomposition(g)
        assert np.all(coreness <= g.degrees)

    @given(graphs())
    @settings(max_examples=100)
    def test_k_core_minimum_degree(self, g):
        coreness = core_decomposition(g)
        if coreness.size == 0:
            return
        for k in range(1, int(coreness.max()) + 1):
            core, _ = induced_subgraph(g, np.flatnonzero(coreness >= k))
            if core.num_nodes:
                assert core.degrees.min() >= k

    @given(graphs())
    @settings(max_examples=100)
    def test_cores_nested(self, g):
        """The (k+1)-core is a subgraph of the k-core."""
        coreness = core_decomposition(g)
        if coreness.size == 0:
            return
        prev = None
        for k in range(int(coreness.max()) + 1):
            members = set(np.flatnonzero(coreness >= k).tolist())
            if prev is not None:
                assert members <= prev
            prev = members

    @given(graphs())
    @settings(max_examples=100)
    def test_greedy_peel_witness(self, g):
        """Iteratively deleting min-degree nodes reproduces coreness as
        the running max of deleted degrees (independent re-derivation)."""
        coreness = core_decomposition(g)
        adjacency = {v: set(g.neighbors(v).tolist()) for v in range(g.num_nodes)}
        degree = {v: len(adjacency[v]) for v in adjacency}
        expected = {}
        current = 0
        while degree:
            v = min(degree, key=lambda x: (degree[x], x))
            current = max(current, degree[v])
            expected[v] = current
            for u in adjacency[v]:
                adjacency[u].discard(v)
                degree[u] -= 1
            del adjacency[v], degree[v]
        for v, c in expected.items():
            assert coreness[v] == c

    @given(graphs())
    @settings(max_examples=60)
    def test_structure_fractions_within_unit_interval(self, g):
        if g.num_nodes == 0:
            return
        s = core_structure(g)
        assert np.all((0 <= s.node_fraction) & (s.node_fraction <= 1))
        assert np.all((0 <= s.edge_fraction) & (s.edge_fraction <= 1))
        assert np.all(s.num_cores >= 0)


class TestCoreStructureOracle:
    """The one-pass structure against the per-k induced-subgraph loop of
    :func:`repro.oracles.core_structure`, bit for bit."""

    @given(g=pieced_graphs())
    @example(g=Graph.empty(1))
    @example(g=Graph.empty(5))
    @example(g=Graph.empty(2))
    @example(g=Graph.from_edges([(0, 1)]))
    @example(g=Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4)], num_nodes=7))
    @example(g=Graph.from_edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))
    @settings(max_examples=150)
    def test_matches_oracle(self, g):
        got, want = core_structure(g), oracles.core_structure(g)
        for field in ("ks", "node_fraction", "edge_fraction", "num_cores"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype, field
            assert a.tobytes() == b.tobytes(), field
