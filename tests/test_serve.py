"""Tests for the online admission service (:mod:`repro.serve`).

The acceptance pins live in :class:`TestOverlayBitIdentity`: every
query served through snapshot + overlay must be bit-identical to
recomputing against a from-scratch CSR of the same logical graph,
across random event streams and compaction boundaries, and (for the
Monte Carlo defense queries) across chunk-size/worker grids.
"""

from __future__ import annotations

import http.client
import json
import threading

import numpy as np
import pytest

from repro import parallel, telemetry
from repro.dynamics import ChurnModel, GraphDelta, GrowthModel, apply_delta
from repro.errors import GraphError, ServeError, SybilDefenseError
from repro.graph import Graph
from repro.serve import (
    AdmissionService,
    CompactionPolicy,
    GraphOverlay,
    HttpClient,
    InProcessClient,
    LoadConfig,
    LoadReport,
    ServiceConfig,
    create_server,
    run_load,
)
from repro.serve.service import (
    _MAX_ESCAPE_LENGTHS,
    _MAX_ESCAPE_STEPS,
    NUM_DISTRIBUTORS,
)
from repro.sybil import (
    GateKeeper,
    GateKeeperConfig,
    SybilRank,
    escape_profile,
    standard_attack,
)
from repro.sybil.harness import standard_attack as _standard_attack


def _random_deltas(graph, num_deltas=6, seed=0):
    """A mixed stream of edge adds/removes/node appends."""
    rng = np.random.default_rng(seed)
    current = graph
    deltas = []
    for step in range(num_deltas):
        n = current.num_nodes
        edges = current.edge_array()
        removed = edges[
            rng.choice(edges.shape[0], size=min(4, edges.shape[0]), replace=False)
        ]
        new_nodes = int(rng.integers(3)) if step % 2 else 0
        pool = n + new_nodes
        proposals = rng.integers(pool, size=(12, 2))
        proposals = proposals[proposals[:, 0] != proposals[:, 1]]
        lo = np.minimum(proposals[:, 0], proposals[:, 1])
        hi = np.maximum(proposals[:, 0], proposals[:, 1])
        added = np.unique(np.column_stack([lo, hi]), axis=0)
        delta = GraphDelta(
            num_new_nodes=new_nodes,
            added=added.astype(np.int64),
            removed=removed.astype(np.int64),
        )
        deltas.append(delta)
        from repro.dynamics import apply_delta

        current = apply_delta(current, delta)
    return deltas


class TestGraphOverlay:
    def test_clean_overlay_mirrors_base(self, ba_small):
        overlay = GraphOverlay(ba_small)
        assert overlay.is_clean
        assert overlay.num_nodes == ba_small.num_nodes
        assert overlay.num_edges == ba_small.num_edges
        assert np.array_equal(overlay.degrees, ba_small.degrees)
        assert overlay.csr() is ba_small

    def test_add_and_remove_edges(self, k5):
        overlay = GraphOverlay(k5)
        assert not overlay.add_edge(0, 1)  # already present
        assert overlay.remove_edge(0, 1)
        assert not overlay.has_edge(0, 1)
        assert overlay.add_edge(1, 0)  # re-add un-removes
        assert overlay.has_edge(0, 1)
        assert overlay.is_clean
        assert overlay.num_edges == k5.num_edges

    def test_self_loop_rejected(self, k5):
        overlay = GraphOverlay(k5)
        with pytest.raises(GraphError):
            overlay.add_edge(2, 2)

    def test_new_nodes_and_degrees(self, k5):
        overlay = GraphOverlay(k5)
        first = overlay.add_nodes(2)
        assert first == 5
        assert overlay.num_nodes == 7
        assert overlay.degree(first) == 0
        overlay.add_edge(first, 0)
        assert overlay.degree(first) == 1
        assert overlay.degree(0) == 5
        assert sorted(overlay.neighbors(first)) == [0]

    def test_edge_array_matches_materialized(self, ba_small):
        overlay = GraphOverlay(ba_small)
        for delta in _random_deltas(ba_small, num_deltas=3, seed=3):
            overlay.apply_delta(delta)
        rebuilt = Graph.from_edges(
            overlay.edge_array(), num_nodes=overlay.num_nodes
        )
        assert overlay.materialize() == rebuilt

    def test_compaction_policy_bounds(self, k5):
        policy = CompactionPolicy(
            max_overlay_edges=2, max_overlay_ratio=1.0, max_new_nodes=1
        )
        overlay = GraphOverlay(k5)
        assert not policy.should_compact(overlay)
        overlay.remove_edge(0, 1)
        assert not policy.should_compact(overlay)
        overlay.remove_edge(0, 2)
        assert policy.should_compact(overlay)
        fresh = GraphOverlay(k5)
        fresh.add_nodes(1)
        assert policy.should_compact(fresh)

    def test_policy_validation(self):
        with pytest.raises(ServeError):
            CompactionPolicy(max_overlay_edges=0)
        with pytest.raises(ServeError):
            CompactionPolicy(max_overlay_ratio=-0.1)


class TestOverlayBitIdentity:
    """The acceptance pins: overlay reads == from-scratch CSR."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_event_stream_matches_scratch_csr(self, ba_small, seed):
        overlay = GraphOverlay(ba_small)
        logical = ba_small
        from repro.dynamics import apply_delta

        for delta in _random_deltas(ba_small, num_deltas=6, seed=seed):
            overlay.apply_delta(delta)
            logical = apply_delta(logical, delta)
            # structural reads, every node, bit-identical
            assert overlay.num_nodes == logical.num_nodes
            assert overlay.num_edges == logical.num_edges
            assert np.array_equal(overlay.degrees, logical.degrees)
            assert np.array_equal(overlay.edge_array(), logical.edge_array())
            for node in range(0, logical.num_nodes, 17):
                assert np.array_equal(
                    overlay.neighbors(node), logical.neighbors(node)
                )
            assert overlay.materialize() == logical

    def test_identity_across_compaction_boundaries(self, ba_small):
        from repro.dynamics import apply_delta

        service = AdmissionService(
            ba_small,
            policy=CompactionPolicy(max_overlay_edges=8),
        )
        logical = ba_small
        for delta in _random_deltas(ba_small, num_deltas=6, seed=5):
            service.apply_delta(delta)
            logical = apply_delta(logical, delta)
            stats = service.stats()
            assert stats.num_nodes == logical.num_nodes
            assert stats.num_edges == logical.num_edges
            for node in range(0, logical.num_nodes, 23):
                assert service.degree(node) == logical.degree(node)
                assert np.array_equal(
                    service.neighbors(node), logical.neighbors(node)
                )
        assert service.stats().compactions > 0
        # after a forced fold the snapshot IS the logical graph
        service.compact()
        assert service.snapshot == logical

    def test_churn_and_growth_streams_compact_to_logical_graph(self, ba_small):
        for model in (
            ChurnModel(churn_rate=0.04, seed=3),
            GrowthModel(nodes_per_step=5, attachment=3, seed=3),
        ):
            service = AdmissionService(
                ba_small, policy=CompactionPolicy(max_overlay_edges=20)
            )
            logical = ba_small
            for _ in range(4):
                delta = model.step_events(logical)
                service.apply_delta(delta)
                logical = apply_delta(logical, delta)
            service.compact()
            assert service.snapshot == logical

    def test_post_compaction_queries_match_scratch(self, tiny_wiki):
        attack = _standard_attack(tiny_wiki, 12, seed=0)
        service = AdmissionService(
            attack.graph,
            num_honest=attack.num_honest,
            config=ServiceConfig(escape_walks=300),
        )
        for delta in _random_deltas(attack.graph, num_deltas=3, seed=7):
            service.apply_delta(delta)
        service.compact()
        scratch = Graph.from_edges(
            service.snapshot.edge_array(), num_nodes=service.snapshot.num_nodes
        )
        # rank: identical to SybilRank on the from-scratch CSR
        expected = (
            SybilRank(scratch)
            .run(np.asarray(service.trust_seeds, dtype=np.int64))
            .normalized
        )
        assert np.array_equal(service.rank_scores(), expected)
        # escape: identical to the from-scratch measurement (the engine
        # grids pin it across every chunk x worker layout)
        got = service.escape(walk_lengths=(3, 9), num_walks=300)
        reference = escape_profile(
            scratch,
            service.num_honest,
            [3, 9],
            num_walks=300,
            seed=service.config.seed,
        )
        assert np.array_equal(got.escape, reference.escape)
        assert got.num_attack_edges == reference.num_attack_edges


class TestAdmissionService:
    def test_clean_rank_matches_sybilrank(self, ba_small):
        service = AdmissionService(ba_small)
        expected = (
            SybilRank(ba_small)
            .run(np.asarray(service.trust_seeds, dtype=np.int64))
            .normalized
        )
        assert np.array_equal(service.rank_scores(), expected)

    def test_overlay_degree_correction(self, ba_small):
        service = AdmissionService(ba_small)
        before = service.rank(0)["score"]
        added = 0
        for v in range(1, ba_small.num_nodes):
            if added == 6:
                break
            if service.add_edge(0, v):
                added += 1
        after = service.rank(0)["score"]
        # same propagated trust, larger live degree => strictly smaller
        assert after < before

    def test_new_node_scores_zero_until_compaction(self, ba_small):
        service = AdmissionService(ba_small, policy=CompactionPolicy(
            max_overlay_edges=10_000, max_new_nodes=10_000,
            max_overlay_ratio=1.0,
        ))
        node = service.add_nodes(1)
        service.add_edge(node, 0)
        verdict = service.rank(node)
        assert verdict["score"] == 0.0
        assert verdict["fresh"] is False
        service.compact()
        assert service.rank(node)["fresh"] is True
        assert service.rank(node)["score"] > 0.0

    def test_admission_round_trip(self, tiny_wiki):
        attack = _standard_attack(tiny_wiki, 12, seed=0)
        service = AdmissionService(attack.graph, num_honest=attack.num_honest)
        verdict = service.admission(5, controller=0)
        assert set(verdict) == {
            "node", "controller", "admitted", "reach", "needed", "fresh",
        }
        # warm repeat must hit the per-snapshot cache
        before = service.stats().cache_hits
        service.admission(6, controller=0)
        assert service.stats().cache_hits > before

    def test_rank_matches_the_masked_formula(self, ba_small):
        """Every node's rank answer equals the masked divide-and-mean
        formula over the live degrees, isolated appended nodes included."""
        service = AdmissionService(ba_small, policy=CompactionPolicy(
            max_overlay_edges=10_000, max_new_nodes=10_000,
            max_overlay_ratio=1.0,
        ))
        first = service.add_nodes(3)
        service.add_edge(first, 0)
        service.add_edge(first + 1, 5)
        for v in range(1, 4):
            service.add_edge(0, ba_small.num_nodes - v)
        n = ba_small.num_nodes + 3
        trust = (
            SybilRank(ba_small)
            .run(np.asarray(service.trust_seeds, dtype=np.int64))
            .trust
        )
        degrees = np.array([service.degree(v) for v in range(n)])
        assert degrees[first + 2] == 0
        padded = np.zeros(n)
        padded[: trust.size] = trust
        expected = np.zeros_like(padded)
        positive = degrees.astype(float) > 0
        expected[positive] = padded[positive] / degrees.astype(float)[positive]
        scores = service.rank_scores()
        assert scores.tobytes() == expected.tobytes()
        for node in range(n):
            verdict = service.rank(node)
            assert verdict["score"] == float(expected[node])
            percentile = float((expected <= expected[node]).mean())
            assert type(verdict["percentile"]) is float
            assert verdict["percentile"] == percentile

    def test_admission_answers_across_compaction(self, tiny_wiki):
        """Admission answers equal a fresh GateKeeper on the current
        snapshot before and after a compaction, and a warm read counts
        one cache hit and no miss."""
        attack = _standard_attack(tiny_wiki, 12, seed=0)
        service = AdmissionService(
            attack.graph,
            num_honest=attack.num_honest,
            policy=CompactionPolicy(
                max_overlay_edges=10_000, max_new_nodes=10_000,
                max_overlay_ratio=1.0,
            ),
        )
        config = GateKeeperConfig(
            num_distributors=NUM_DISTRIBUTORS,
            admission_factor=service.config.admission_factor,
            seed=service.config.seed,
        )

        def check() -> None:
            for controller in (0, 2):
                reference = GateKeeper(service.snapshot, config).run(controller)
                needed = max(
                    1,
                    int(np.ceil(
                        config.admission_factor * reference.distributors.size
                    )),
                )
                for node in range(0, service.snapshot.num_nodes, 7):
                    verdict = service.admission(node, controller=controller)
                    reach = int(reference.reach_counts[node])
                    assert verdict["reach"] == reach
                    assert verdict["admitted"] == (reach >= needed)
                    assert verdict["needed"] == needed
            before = service.stats()
            service.admission(1, controller=0)
            after = service.stats()
            assert after.cache_hits == before.cache_hits + 1
            assert after.cache_misses == before.cache_misses

        check()
        digest = service.snapshot_digest
        for delta in _random_deltas(attack.graph, num_deltas=2, seed=3):
            service.apply_delta(delta)
        assert service.compact() is not None
        assert service.snapshot_digest != digest
        check()

    def test_escape_requires_labels(self, ba_small):
        service = AdmissionService(ba_small)
        with pytest.raises(ServeError, match="num_honest"):
            service.escape()

    @pytest.mark.parametrize(
        "lengths", [(5, 2), (0,), (-3,)], ids=["decreasing", "zero", "negative"]
    )
    def test_bad_escape_lengths_count_no_query(self, ba_small, lengths):
        """Lengths the escape measurement would reject are refused
        before the query is counted, as the length caps are."""
        service = AdmissionService(ba_small, num_honest=ba_small.num_nodes // 2)
        with telemetry.activate() as tel:
            before = service.stats()
            with pytest.raises(SybilDefenseError, match="strictly increasing"):
                service.escape(walk_lengths=lengths)
            assert service.stats() == before
            assert before.queries == 0
            assert tel.counter("serve.queries.escape") == 0
            assert tel.counter("serve.queries") == 0

    def test_compaction_resets_staleness_and_chains_digest(self, ba_small):
        service = AdmissionService(ba_small)
        digest0 = service.snapshot_digest
        assert service.add_edge(0, ba_small.num_nodes - 1)
        stats = service.compact()
        assert stats is not None
        assert stats.digest == service.snapshot_digest != digest0
        assert service.stats().staleness == 0
        assert service.compact() is None  # clean overlay: no-op

    def test_store_memoization_survives_restart(self, ba_small, tmp_path):
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "cache")
        cold = AdmissionService(ba_small, store=store)
        scores = cold.rank_scores()
        warm = AdmissionService(ba_small, store=store)
        assert np.array_equal(warm.rank_scores(), scores)
        assert store.stats.hits > 0

    def test_walk_answers_recompute_over_version_one_entries(
        self, tiny_wiki, tmp_path
    ):
        """Admission and escape answers are drawn from sampled walks, so
        they are stored under the walk version: an entry a version-1
        store holds under the same parameters is never replayed."""
        from repro.pipeline import _WALK_VERSION
        from repro.store import ArtifactStore

        attack = _standard_attack(tiny_wiki, 12, seed=0)
        store = ArtifactStore(tmp_path / "cache")
        service = AdmissionService(
            attack.graph,
            num_honest=attack.num_honest,
            store=store,
            config=ServiceConfig(escape_walks=200),
        )
        digest = service.snapshot_digest
        admission_params = {
            "controller": 0,
            "num_distributors": NUM_DISTRIBUTORS,
            "admission_factor": 0.2,
            "seed": 0,
        }
        escape_params = {
            "lengths": [2, 5, 10, 20],
            "num_walks": 200,
            "num_honest": attack.num_honest,
            "seed": 0,
        }
        store.put(digest, "serve.admission", admission_params, "stale", version=1)
        store.put(digest, "serve.escape", escape_params, "stale", version=1)
        answer = service.admission(3, controller=0)
        measured = service.escape()
        expected = GateKeeper(
            attack.graph, GateKeeperConfig(num_distributors=NUM_DISTRIBUTORS, seed=0)
        ).run(0)
        assert answer["reach"] == int(expected.reach_counts[3])
        assert np.array_equal(
            measured.escape,
            escape_profile(
                attack.graph, attack.num_honest, [2, 5, 10, 20], num_walks=200, seed=0
            ).escape,
        )
        assert store.stats.writes == 4  # two planted, two recomputed
        for stage, params in (
            ("serve.admission", admission_params),
            ("serve.escape", escape_params),
        ):
            assert store.get(digest, stage, params, version=1) == "stale"
            assert store.get(digest, stage, params, version=_WALK_VERSION) is not None

    def test_escape_cache_ignores_execution_scope(self, tiny_wiki, tmp_path):
        """Scheduling never changes the escape result, so it must not
        split the warm cache or the store: one cold build, one write."""
        from repro.store import ArtifactStore

        attack = _standard_attack(tiny_wiki, 12, seed=0)
        store = ArtifactStore(tmp_path / "cache")
        service = AdmissionService(
            attack.graph,
            num_honest=attack.num_honest,
            store=store,
            config=ServiceConfig(escape_walks=200),
        )
        with telemetry.activate() as tel:
            with parallel.execution(workers=1):
                first = service.escape()
            with parallel.execution(workers=2):
                second = service.escape()
        assert np.array_equal(first.escape, second.escape)
        assert tel.counter("serve.cache.misses") == 1
        assert tel.counter("serve.cache.hits") == 1
        assert store.stats.writes == 1

    def test_telemetry_counters(self, ba_small):
        with telemetry.activate() as tel:
            service = AdmissionService(ba_small)
            service.rank_scores()
            service.rank_scores()
            service.add_edge(0, ba_small.num_nodes - 1)
            assert tel.counter("serve.queries.rank") == 2
            assert tel.counter("serve.cache.hits") > 0
            assert tel.counter("serve.writes") == 1

    def test_config_validation(self, ba_small):
        with pytest.raises(ServeError):
            ServiceConfig(num_seeds=0)
        with pytest.raises(ServeError):
            ServiceConfig(admission_factor=0.0)
        with pytest.raises(ServeError):
            AdmissionService(ba_small, num_honest=0)
        with pytest.raises(ServeError):
            AdmissionService(Graph.from_edges([(0, 1)]))

    def test_concurrent_reads_during_writes(self, ba_small):
        service = AdmissionService(
            ba_small, policy=CompactionPolicy(max_overlay_edges=16)
        )
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    service.rank_scores()
                    service.stats()
                except Exception as exc:  # noqa: BLE001 - collecting
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        rng = np.random.default_rng(0)
        for _ in range(120):
            u, v = rng.integers(ba_small.num_nodes, size=2)
            if u != v:
                service.add_edge(int(u), int(v))
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        assert service.stats().compactions > 0


class TestHTTPServer:
    @pytest.fixture()
    def served(self, tiny_wiki):
        attack = _standard_attack(tiny_wiki, 12, seed=0)
        service = AdmissionService(
            attack.graph,
            num_honest=attack.num_honest,
            config=ServiceConfig(escape_walks=200),
        )
        server = create_server(service)
        server.serve_in_background()
        yield service, HttpClient(server.url)
        server.shutdown()

    def test_round_trip_matches_in_process(self, served):
        service, client = served
        assert client.num_nodes == service.stats().num_nodes
        assert client.rank(3) == service.rank(3)
        assert client.admission(5, 0) == service.admission(5, controller=0)
        profile = client.escape()
        reference = service.escape()
        assert profile["escape"] == [float(p) for p in reference.escape]

    def test_writes_and_compaction(self, served):
        service, client = served
        before = service.stats().num_edges
        changed = client.add_edge(0, service.stats().snapshot_nodes - 1)
        assert service.stats().num_edges == before + (1 if changed else 0)
        first = client.add_node()
        assert first == service.stats().num_nodes - 1
        # force-compact over HTTP
        doc = client._post("/compact", {})
        assert doc["compacted"] is True
        assert service.stats().staleness == 0

    def test_error_surfaces(self, served):
        _, client = served
        with pytest.raises(ServeError, match="HTTP 400"):
            client.rank(10**9)
        with pytest.raises(ServeError, match="HTTP 400"):
            client._get("/rank")  # missing node param
        with pytest.raises(ServeError, match="HTTP 404"):
            client._get("/nope")

    def test_node_count_above_the_policy_is_rejected(self, served):
        """A client-sized count never reaches the overlay, so it cannot
        size a compaction and wedge every later write."""
        service, client = served
        before = client.stats()
        limit = service.policy.max_new_nodes
        for count in (10**12, limit + 1, 0):
            with pytest.raises(ServeError, match="HTTP 400"):
                client._post("/nodes", {"count": count})
        after = client.stats()
        before.pop("queries"), after.pop("queries")
        assert after == before
        assert client._post("/compact", {}) == {"compacted": False}
        assert client._post("/nodes", {"count": limit})["count"] == limit

    @staticmethod
    def _post_raw(url: str, length: str, body: bytes = b"") -> tuple[int, dict]:
        """POST /edges with a hand-set Content-Length; (status, JSON)."""
        host, port = url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5.0)
        try:
            conn.putrequest("POST", "/edges")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            if body:
                conn.send(body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "length,status",
        [("1000000000000", 413), ("1000000000", 413), ("-1", 400)],
    )
    def test_content_length_is_bounded(self, served, length, status):
        """The server answers from the header alone: it neither sizes a
        read buffer from it nor waits for bytes that never come."""
        service, client = served
        before = client.stats()
        code, doc = self._post_raw(client._base, length)
        assert code == status
        assert "error" in doc
        after = client.stats()
        before.pop("queries"), after.pop("queries")
        assert after == before

    @pytest.mark.parametrize(
        "lengths",
        [
            str(_MAX_ESCAPE_STEPS + 1),
            "2,5," + str(_MAX_ESCAPE_STEPS + 1),
            ",".join(str(w) for w in range(1, _MAX_ESCAPE_LENGTHS + 2)),
            "5,2",
        ],
        ids=["step-cap", "step-cap-last", "length-count-cap", "decreasing"],
    )
    def test_escape_query_is_bounded(self, served, lengths):
        """Unabsorbed walks run their full length, so a client could hold
        a handler for hours; an oversized query is refused before any
        walk runs and leaves every counter as it was."""
        service, client = served
        before = service.stats()
        with pytest.raises(ServeError, match="HTTP 400"):
            client._get(f"/escape?lengths={lengths}")
        assert service.stats() == before
        widest = ",".join(str(w) for w in range(1, _MAX_ESCAPE_LENGTHS)) + (
            f",{_MAX_ESCAPE_STEPS}"
        )
        doc = client._get(f"/escape?lengths={widest}")
        assert len(doc["walk_lengths"]) == _MAX_ESCAPE_LENGTHS
        assert doc["walk_lengths"][-1] == _MAX_ESCAPE_STEPS

    def test_stalled_body_times_out(self, served, monkeypatch):
        from repro.serve import server

        assert 0 < server._Handler.timeout < 60
        monkeypatch.setattr(server._Handler, "timeout", 0.3)
        service, client = served
        before = client.stats()
        code, doc = self._post_raw(client._base, "40", b'{"u": 1')
        assert code == 408
        assert "timed out" in doc["error"]
        after = client.stats()
        before.pop("queries"), after.pop("queries")
        assert after == before

    def test_unexpected_error_answers_500_with_json(self, served, monkeypatch):
        service, client = served

        def broken():
            raise RuntimeError("injected fault")

        monkeypatch.setattr(service, "stats", broken)
        with pytest.raises(ServeError, match="HTTP 500") as info:
            client._get("/stats")
        body = json.loads(str(info.value).split(": ", 1)[1])
        assert "injected fault" in body["error"]
        assert client._get("/healthz") == {"status": "ok"}


class TestLoadGenerator:
    def test_in_process_load_report(self, tiny_wiki):
        attack = _standard_attack(tiny_wiki, 12, seed=0)
        service = AdmissionService(
            attack.graph,
            num_honest=attack.num_honest,
            config=ServiceConfig(escape_walks=200),
            policy=CompactionPolicy(max_overlay_edges=16),
        )
        report = run_load(
            InProcessClient(service),
            LoadConfig(num_clients=3, num_requests=150, write_fraction=0.3),
            target="tiny",
        )
        assert isinstance(report, LoadReport)
        assert report.errors == 0
        assert report.total_requests == 150
        assert report.qps > 0
        assert report.p99_ms >= report.p50_ms > 0
        assert report.compactions == len(report.compaction_pauses_ms)
        table = report.format_table()
        assert "p99" in table and "rank" in table

    def test_http_load_with_concurrent_writes(self, tiny_wiki):
        attack = _standard_attack(tiny_wiki, 12, seed=0)
        service = AdmissionService(
            attack.graph,
            num_honest=attack.num_honest,
            config=ServiceConfig(escape_walks=200),
            policy=CompactionPolicy(max_overlay_edges=24),
        )
        server = create_server(service)
        server.serve_in_background()
        try:
            report = run_load(
                HttpClient(server.url),
                LoadConfig(num_clients=4, num_requests=200, write_fraction=0.3),
                target="tiny",
                service=service,
            )
        finally:
            server.shutdown()
        assert report.errors == 0
        assert report.transport == "http"
        stats = service.stats()
        assert stats.writes > 0 and stats.queries > 0

    def test_load_config_validation(self):
        with pytest.raises(ServeError):
            LoadConfig(num_clients=0)
        with pytest.raises(ServeError):
            LoadConfig(write_fraction=1.5)

    def test_deterministic_op_stream(self, tiny_wiki):
        # same config => same per-op request counts, independent of timing
        attack = _standard_attack(tiny_wiki, 12, seed=0)

        def counts():
            service = AdmissionService(
                attack.graph,
                num_honest=attack.num_honest,
                config=ServiceConfig(escape_walks=200),
            )
            report = run_load(
                InProcessClient(service),
                LoadConfig(num_clients=2, num_requests=80, seed=9),
            )
            return {s.op: s.count for s in report.summaries}

        assert counts() == counts()


class TestTelemetryDistributions:
    def test_observe_and_summary(self):
        tel = telemetry.Telemetry()
        for v in [1.0, 2.0, 3.0, 4.0]:
            tel.observe("lat", v)
        summary = tel.distribution("lat")
        assert summary["count"] == 4
        assert summary["mean"] == 2.5
        assert summary["p50"] == 2.0
        assert summary["max"] == 4.0
        doc = tel.as_dict()
        assert doc["schema"] == telemetry.SCHEMA_VERSION
        assert doc["distributions"]["lat"]["count"] == 4

    def test_disabled_is_noop_and_reset_clears(self):
        assert telemetry.NULL_TELEMETRY.observe("x", 1.0) is None
        assert telemetry.NULL_TELEMETRY.distribution("x") == {}
        tel = telemetry.Telemetry()
        tel.observe("x", 1.0)
        tel.reset()
        assert tel.distribution("x") == {}

    def test_bounded_buffer(self):
        tel = telemetry.Telemetry()
        cap = telemetry.DISTRIBUTION_CAPACITY
        for v in range(cap + 10):
            tel.observe("x", float(v))
        summary = tel.distribution("x")
        assert summary["count"] == cap
        # oldest samples dropped
        assert min(s for s in [summary["p50"]]) > 0


def test_standard_attack_reexport():
    assert standard_attack is _standard_attack
