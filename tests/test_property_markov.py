"""Property-based tests for Markov-chain machinery and distances."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import oracles
from repro.graph import Graph
from repro.markov import (
    delta_block,
    evolve_block,
    stationary_distribution,
    total_variation_distance,
    transition_matrix,
)
from repro.mixing import sampled_mixing_profile
from repro.parallel import execution


@st.composite
def connected_graphs(draw, max_nodes: int = 15):
    """Graphs guaranteed connected via a random spanning tree."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    return Graph.from_edges(edges + extra, num_nodes=n)


@st.composite
def distributions(draw, size: int = 6):
    raw = draw(
        st.lists(
            st.floats(min_value=0.001, max_value=1.0),
            min_size=size,
            max_size=size,
        )
    )
    arr = np.asarray(raw)
    return arr / arr.sum()


class TestDistanceAxioms:
    @given(distributions(), distributions())
    @settings(max_examples=100)
    def test_tvd_bounds(self, p, q):
        d = total_variation_distance(p, q)
        assert 0.0 <= d <= 1.0 + 1e-12

    @given(distributions(), distributions())
    @settings(max_examples=100)
    def test_tvd_symmetry(self, p, q):
        assert total_variation_distance(p, q) == total_variation_distance(q, p)

    @given(distributions())
    @settings(max_examples=100)
    def test_tvd_identity(self, p):
        assert total_variation_distance(p, p) == 0.0

    @given(distributions(), distributions(), distributions())
    @settings(max_examples=100)
    def test_tvd_triangle_inequality(self, p, q, r):
        assert total_variation_distance(p, r) <= (
            total_variation_distance(p, q) + total_variation_distance(q, r) + 1e-12
        )


class TestChainInvariants:
    @given(connected_graphs())
    @settings(max_examples=60, deadline=None)
    def test_evolution_preserves_probability(self, g):
        dist = delta_block(g.num_nodes, [0])
        for _ in range(5):
            dist = evolve_block(g, dist, 1)
            assert abs(dist.sum() - 1.0) < 1e-9
            assert np.all(dist >= -1e-15)

    @given(connected_graphs())
    @settings(max_examples=60, deadline=None)
    def test_stationary_is_fixed_point(self, g):
        pi = stationary_distribution(g)
        evolved = evolve_block(g, pi[:, None], 1)[:, 0]
        assert np.allclose(evolved, pi, atol=1e-12)

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_lazy_chain_converges_to_stationary(self, g):
        """The lazy chain on a connected graph always converges."""
        lazy = transition_matrix(g, lazy=True)
        dist = evolve_block(lazy, delta_block(g.num_nodes, [0]), 300)[:, 0]
        assert total_variation_distance(dist, stationary_distribution(g)) < 0.01

    @given(connected_graphs())
    @settings(max_examples=60, deadline=None)
    def test_tvd_to_stationary_monotone_for_lazy_chain(self, g):
        """Lazy-chain TVD to stationarity never increases (a standard
        contraction property used implicitly by the mixing measurement)."""
        lazy, pi = transition_matrix(g, lazy=True), stationary_distribution(g)
        dist = delta_block(g.num_nodes, [0])
        previous = total_variation_distance(dist[:, 0], pi)
        for _ in range(10):
            dist = evolve_block(lazy, dist, 1)
            current = total_variation_distance(dist[:, 0], pi)
            assert current <= previous + 1e-10
            previous = current


class TestBatchedSequentialEquivalence:
    """The batched walk engine is byte-identical to the sequential oracle
    on arbitrary connected graphs — not just approximately equal."""

    @given(
        connected_graphs(),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_profile_statistics_byte_identical(self, g, seed, lazy):
        lengths = [0, 1, 2, 3, 5, 8]
        kwargs = dict(
            walk_lengths=lengths,
            num_sources=min(8, g.num_nodes),
            lazy=lazy,
            seed=seed,
        )
        seq = oracles.sampled_mixing_profile(g, **kwargs)
        bat = sampled_mixing_profile(g, **kwargs)
        assert np.array_equal(seq.sources, bat.sources)
        assert np.array_equal(seq.walk_lengths, bat.walk_lengths)
        assert bat.tvd.tobytes() == seq.tvd.tobytes()
        assert bat.mean.tobytes() == seq.mean.tobytes()
        assert bat.max.tobytes() == seq.max.tobytes()
        assert bat.min.tobytes() == seq.min.tobytes()
        assert bat.percentile(25).tobytes() == seq.percentile(25).tobytes()
        assert bat.percentile(90).tobytes() == seq.percentile(90).tobytes()

    @given(
        connected_graphs(),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_chunking_and_workers_byte_identical(self, g, chunk_size, workers):
        kwargs = dict(walk_lengths=[1, 2, 4], num_sources=min(6, g.num_nodes), seed=0)
        seq = oracles.sampled_mixing_profile(g, **kwargs)
        with execution(chunk_size=chunk_size, workers=workers):
            bat = sampled_mixing_profile(g, **kwargs)
        assert bat.tvd.tobytes() == seq.tvd.tobytes()
