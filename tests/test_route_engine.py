"""The batched route engine against its hop-by-hop twins.

SybilGuard's routes and verdicts and SybilLimit's tails and verdicts
come from one block of route keys advanced as half-edge
vectors (:mod:`repro.markov.walks`); :mod:`repro.oracles` rebuilds each
node's permutation from its key segment and walks every route one hop
at a time.  The two must agree bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import oracles, telemetry
from repro.generators import barabasi_albert
from repro.graph import Graph
from repro.markov import walks
from repro.sybil import SybilGuard, SybilGuardConfig, SybilLimit, SybilLimitConfig

# 0-1-2-3 closes a triangle 1-2-3; 0 and 4 have degree 1, 5 and 6 none
SPARSE = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)], num_nodes=7)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=10))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
        )
    )
    return Graph.from_edges(edges, num_nodes=n)


def _block(graph: Graph, seed: int, rows: int) -> np.ndarray:
    return walks._successor_block(graph, np.random.default_rng(seed), rows)


def _assert_limit_matches(defense: SybilLimit) -> None:
    n = defense.graph.num_nodes
    twin = oracles.sybillimit_tails(defense)
    assert [defense.tails(v) for v in range(n)] == twin
    suspects = np.random.default_rng(n).integers(0, n, size=3 * n)
    for verifier in range(n):
        for order in (suspects, suspects[::-1], np.arange(n)):
            fast = defense.verify_all(verifier, order)
            slow = oracles.sybillimit_verify_all(defense, verifier, order)
            assert fast.dtype == slow.dtype
            assert fast.tobytes() == slow.tobytes()


def _assert_guard_matches(guard: SybilGuard) -> None:
    n = guard.graph.num_nodes
    twin = oracles.sybilguard_routes(guard)
    for v in range(n):
        fast = guard.routes(v)
        assert len(fast) == len(twin[v])
        for a, b in zip(fast, twin[v]):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
    verdicts = [[guard.verify(v, s) for s in range(n)] for v in range(n)]
    assert verdicts == [
        [oracles.sybilguard_verify(guard, v, s, twin) for s in range(n)]
        for v in range(n)
    ]


class TestSuccessorBlock:
    @pytest.mark.parametrize("graph", [barabasi_albert(40, 3, seed=1), SPARSE])
    def test_bijection_that_follows_edges(self, graph):
        rows, size = 5, graph.indices.size
        block = _block(graph, 3, rows)
        assert block.shape == (rows, size)
        local = block - (np.arange(rows) * size)[:, None]
        # each row permutes its own half-edges
        half_edges = np.tile(np.arange(size), (rows, 1))
        assert np.array_equal(np.sort(local, axis=1), half_edges)
        # a route arriving over u -> v leaves on a half-edge out of v
        src = np.repeat(graph.nodes(), graph.degrees)
        assert np.array_equal(src[local], np.tile(graph.indices, (rows, 1)))

    def test_route_table_is_row_zero(self):
        graph = barabasi_albert(50, 2, seed=3)
        paths = walks._route_paths(graph, 9, 2)
        # the route over half-edge e takes half-edge successor[e] next
        successor = _block(graph, 9, 4)[0]
        assert np.array_equal(paths[:, 2], graph.indices[successor])

    def test_row_blocks_read_one_stream(self, monkeypatch):
        graph = barabasi_albert(30, 2, seed=5)
        whole = _block(graph, 6, 7)
        monkeypatch.setattr(walks, "_KEY_BLOCK", 2 * graph.indices.size)
        assert np.array_equal(_block(graph, 6, 7), whole)

    def test_edgeless_graph(self):
        assert _block(Graph.empty(4), 0, 3).shape == (3, 0)
        assert walks._route_paths(Graph.empty(4), 0, 5).shape == (0, 6)


class TestRoutesMatchOracle:
    def test_sybillimit_several_instances(self):
        graph = barabasi_albert(60, 3, seed=11)
        _assert_limit_matches(
            SybilLimit(graph, SybilLimitConfig(num_routes=9, route_length=7, seed=3))
        )

    def test_sybilguard_on_ba(self):
        graph = barabasi_albert(40, 2, seed=12)
        _assert_guard_matches(SybilGuard(graph, SybilGuardConfig(seed=5)))

    @pytest.mark.parametrize("length", [1, 2, 6])
    def test_isolated_and_degree_one_nodes(self, length):
        limit = SybilLimit(
            SPARSE, SybilLimitConfig(num_routes=4, route_length=length, seed=1)
        )
        _assert_limit_matches(limit)
        assert limit.tails(5) == []
        assert limit.verify_all(6, [0, 1, 6]).size == 0
        guard = SybilGuard(SPARSE, SybilGuardConfig(route_length=length, seed=2))
        _assert_guard_matches(guard)
        assert guard.routes(6) == []
        assert not guard.verify(5, 1)

    @given(
        small_graphs(),
        st.integers(0, 2**31),
        st.integers(1, 5),
        st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_small_graphs(self, graph, seed, rows, length):
        _assert_limit_matches(
            SybilLimit(
                graph,
                SybilLimitConfig(num_routes=rows, route_length=length, seed=seed),
            )
        )
        _assert_guard_matches(
            SybilGuard(graph, SybilGuardConfig(route_length=length, seed=seed))
        )


class TestRouteTelemetry:
    def test_hops_counter_is_routes_times_length_minus_one(self):
        graph = barabasi_albert(50, 2, seed=13)
        with telemetry.activate() as tel:
            SybilGuard(graph, SybilGuardConfig(route_length=11)).verify(0, 1)
        assert tel.counter("sybil.routes.hops") == graph.indices.size * 10
        assert tel.spans["sybil.routes"].count == 1

    def test_sybillimit_block(self):
        graph = barabasi_albert(50, 2, seed=14)
        with telemetry.activate() as tel:
            defense = SybilLimit(
                graph, SybilLimitConfig(num_routes=6, route_length=5)
            )
            defense.verify_all(0, range(10))
            defense.verify_all(1, range(10))
        assert tel.counter("sybil.routes.hops") == graph.num_nodes * 6 * 4
        assert tel.spans["sybil.routes"].count == 1
