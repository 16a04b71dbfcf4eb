"""Property-based tests for community detection."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community import greedy_modularity, modularity
from repro.graph import Graph


@st.composite
def graphs(draw, max_nodes: int = 18):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    k = draw(st.integers(min_value=1, max_value=3 * n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=k,
            max_size=k,
        )
    )
    return Graph.from_edges(edges, num_nodes=n)


class TestModularityInvariants:
    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_modularity_bounded(self, g):
        """Q always lies in [-1, 1] for any labeling."""
        for labels in (
            np.zeros(g.num_nodes, dtype=np.int64),
            np.arange(g.num_nodes, dtype=np.int64),
        ):
            q = modularity(g, labels)
            assert -1.0 - 1e-9 <= q <= 1.0 + 1e-9

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_singletons_have_nonpositive_modularity(self, g):
        q = modularity(g, np.arange(g.num_nodes, dtype=np.int64))
        assert q <= 1e-12

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_greedy_never_below_singleton_partition(self, g):
        """The optimizer starts from singletons and only accepts
        improving moves, so its result cannot be worse."""
        labels = greedy_modularity(g, seed=0)
        baseline = modularity(g, np.arange(g.num_nodes, dtype=np.int64))
        assert modularity(g, labels) >= baseline - 1e-9

    @given(graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_modularity_label_permutation_invariant(self, g, rnd):
        labels = greedy_modularity(g, seed=1)
        mapping = list(range(int(labels.max()) + 1))
        rnd.shuffle(mapping)
        permuted = np.asarray([mapping[int(c)] for c in labels])
        assert modularity(g, permuted) == np.float64(modularity(g, labels))
