"""Unit tests for dynamic-graph evolution and tracking."""

from __future__ import annotations

import numpy as np
import pytest

from repro import oracles
from repro.dynamics import (
    ChurnModel,
    GraphDelta,
    GrowthModel,
    SnapshotMetrics,
    apply_delta,
    snapshots,
    track_evolution,
)
from repro.errors import GraphError
from repro.generators import barabasi_albert, community_social_graph
from repro.graph import Graph
from repro.mixing import slem


def _legacy_churn_step(graph, churn_rate, seed, rng):
    """The pre-event-stream ChurnModel.step (random mode), verbatim:
    per-edge python loop over scalar RNG draws.  The vectorized model
    is pinned bit-identical against this oracle."""
    edges = graph.edge_array()
    num_replace = max(1, int(churn_rate * edges.shape[0]))
    drop_idx = rng.choice(edges.shape[0], size=num_replace, replace=False)
    kept = np.delete(edges, drop_idx, axis=0)
    existing = {(int(u), int(v)) for u, v in kept}
    new_edges = []
    attempts = 0
    while len(new_edges) < num_replace and attempts < 50 * num_replace:
        attempts += 1
        u = int(rng.integers(graph.num_nodes))
        v = int(rng.integers(graph.num_nodes))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in existing:
            continue
        existing.add(key)
        new_edges.append(key)
    combined = np.concatenate(
        [kept, np.asarray(new_edges, dtype=np.int64).reshape(-1, 2)]
    )
    return Graph.from_edges(combined, num_nodes=graph.num_nodes)


def _legacy_growth_step(graph, nodes_per_step, attachment, rng):
    """The pre-event-stream GrowthModel.step, verbatim: rebuilds the
    endpoint multiset as a python list every step."""
    endpoints = [int(x) for x in graph.edge_array().ravel()]
    edges = [tuple(e) for e in graph.edge_array()]
    next_id = graph.num_nodes
    for _ in range(nodes_per_step):
        wanted = min(attachment, next_id)
        targets = set()
        while len(targets) < wanted:
            targets.add(endpoints[int(rng.integers(len(endpoints)))])
        for t in sorted(targets):
            edges.append((t, next_id))
            endpoints.extend([t, next_id])
        next_id += 1
    return Graph.from_edges(edges, num_nodes=next_id)


@pytest.fixture(scope="module")
def base_graph():
    return community_social_graph(400, 4, 3, 0.02, seed=0)


class TestChurnModel:
    def test_preserves_node_and_edge_counts(self, base_graph):
        model = ChurnModel(churn_rate=0.1, seed=1)
        evolved = model.step(base_graph)
        assert evolved.num_nodes == base_graph.num_nodes
        # edge count stays within the replacement tolerance
        assert abs(evolved.num_edges - base_graph.num_edges) <= int(
            0.1 * base_graph.num_edges
        )

    def test_changes_edges(self, base_graph):
        model = ChurnModel(churn_rate=0.2, seed=2)
        evolved = model.step(base_graph)
        assert evolved != base_graph

    def test_random_rewiring_speeds_mixing(self, base_graph):
        """Random churn erodes community bottlenecks, so SLEM falls —
        the qualitative answer to the paper's open question."""
        model = ChurnModel(churn_rate=0.15, rewiring="random", seed=3)
        current = base_graph
        for _ in range(4):
            current = model.step(current)
        from repro.graph import largest_connected_component

        lcc, _ = largest_connected_component(current)
        assert slem(lcc) < slem(base_graph)

    def test_triadic_rewiring_keeps_structure_tighter(self, base_graph):
        random_model = ChurnModel(churn_rate=0.15, rewiring="random", seed=4)
        triadic_model = ChurnModel(churn_rate=0.15, rewiring="triadic", seed=4)
        rnd, tri = base_graph, base_graph
        for _ in range(3):
            rnd = random_model.step(rnd)
            tri = triadic_model.step(tri)
        from repro.graph import largest_connected_component

        rnd_lcc, _ = largest_connected_component(rnd)
        tri_lcc, _ = largest_connected_component(tri)
        assert slem(tri_lcc) > slem(rnd_lcc)

    def test_invalid_params(self):
        with pytest.raises(GraphError):
            ChurnModel(churn_rate=0.0)
        with pytest.raises(GraphError):
            ChurnModel(rewiring="teleport")

    def test_too_small_graph_rejected(self):
        model = ChurnModel()
        with pytest.raises(GraphError):
            model.step(Graph.from_edges([(0, 1)]))


class TestGrowthModel:
    def test_adds_nodes_and_edges(self):
        base = barabasi_albert(100, 3, seed=5)
        model = GrowthModel(nodes_per_step=10, attachment=3, seed=5)
        grown = model.step(base)
        assert grown.num_nodes == 110
        assert grown.num_edges == base.num_edges + 10 * 3

    def test_new_nodes_attach_preferentially(self):
        base = barabasi_albert(200, 3, seed=6)
        model = GrowthModel(nodes_per_step=50, attachment=2, seed=6)
        grown = model.step(base)
        # hubs should have gained more new links than median nodes
        hub = int(np.argmax(base.degrees))
        gained_hub = grown.degree(hub) - base.degree(hub)
        median_node = int(np.argsort(base.degrees)[base.num_nodes // 2])
        gained_median = grown.degree(median_node) - base.degree(median_node)
        assert gained_hub >= gained_median

    def test_invalid_params(self):
        with pytest.raises(GraphError):
            GrowthModel(nodes_per_step=0)
        with pytest.raises(GraphError):
            GrowthModel(attachment=0)

    def test_empty_base_rejected(self):
        with pytest.raises(GraphError):
            GrowthModel().step(Graph.empty(5))


class TestEventStreamEquivalence:
    """Pins for the event-stream rewrite of the evolution models."""

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_random_churn_bit_identical_to_legacy(self, base_graph, seed):
        model = ChurnModel(churn_rate=0.08, rewiring="random", seed=seed)
        legacy_rng = np.random.default_rng(seed)
        new, old = base_graph, base_graph
        for _ in range(4):
            new = model.step(new)
            old = _legacy_churn_step(old, 0.08, seed, legacy_rng)
            assert new == old

    @pytest.mark.parametrize("rewiring", ["random", "triadic"])
    def test_batched_matches_sequential_oracle(self, base_graph, rewiring):
        batched = ChurnModel(churn_rate=0.1, rewiring=rewiring, seed=5)
        sequential = ChurnModel(churn_rate=0.1, rewiring=rewiring, seed=5)
        b, s = base_graph, base_graph
        for _ in range(3):
            b = batched.step(b)
            s = apply_delta(s, oracles.churn_step_events(sequential, s))
            assert b == s

    @pytest.mark.parametrize("seed", [2, 8])
    def test_growth_bit_identical_to_legacy(self, seed):
        base = barabasi_albert(150, 3, seed=seed)
        model = GrowthModel(nodes_per_step=12, attachment=3, seed=seed)
        legacy_rng = np.random.default_rng(seed)
        new, old = base, base
        for _ in range(3):
            new = model.step(new)
            old = _legacy_growth_step(old, 12, 3, legacy_rng)
            assert new == old

    def test_step_equals_events_plus_apply(self, base_graph):
        stepped = ChurnModel(churn_rate=0.1, seed=6).step(base_graph)
        delta = ChurnModel(churn_rate=0.1, seed=6).step_events(base_graph)
        assert apply_delta(base_graph, delta) == stepped
        grown = GrowthModel(nodes_per_step=7, seed=6).step(base_graph)
        gdelta = GrowthModel(nodes_per_step=7, seed=6).step_events(base_graph)
        assert apply_delta(base_graph, gdelta) == grown

    def test_delta_validation(self):
        with pytest.raises(GraphError):
            GraphDelta(
                num_new_nodes=-1,
                added=np.empty((0, 2), dtype=np.int64),
                removed=np.empty((0, 2), dtype=np.int64),
            )
        with pytest.raises(GraphError):
            GraphDelta(
                num_new_nodes=0,
                added=np.array([1, 2, 3], dtype=np.int64),
                removed=np.empty((0, 2), dtype=np.int64),
            )


class TestSnapshots:
    def test_yields_base_plus_steps(self, base_graph):
        seq = list(snapshots(base_graph, ChurnModel(seed=7), 3))
        assert len(seq) == 4

    def test_keep_largest_component(self, base_graph):
        from repro.graph import num_connected_components

        seq = list(snapshots(base_graph, ChurnModel(churn_rate=0.3, seed=8), 2))
        assert all(num_connected_components(g) == 1 for g in seq)

    def test_negative_steps_rejected(self, base_graph):
        with pytest.raises(GraphError):
            list(snapshots(base_graph, ChurnModel(seed=9), -1))


class TestTracking:
    def test_metrics_fields(self, base_graph):
        seq = snapshots(base_graph, ChurnModel(churn_rate=0.1, seed=10), 2)
        metrics = track_evolution(seq, expansion_sources=10)
        assert len(metrics) == 3
        for i, m in enumerate(metrics):
            assert isinstance(m, SnapshotMetrics)
            assert m.step == i
            assert 0.0 < m.slem < 1.0
            assert m.degeneracy >= 1
            assert m.max_cores >= 1
            assert m.mean_small_set_expansion > 0
            assert m.spectral_gap == pytest.approx(1.0 - m.slem)

    def test_growth_tracking(self):
        base = barabasi_albert(120, 3, seed=11)
        seq = snapshots(base, GrowthModel(nodes_per_step=30, seed=11), 2)
        metrics = track_evolution(seq, expansion_sources=10)
        sizes = [m.num_nodes for m in metrics]
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]

    def test_tiny_snapshot_rejected(self):
        with pytest.raises(GraphError):
            track_evolution([Graph.from_edges([(0, 1)])])
