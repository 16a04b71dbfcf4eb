"""Process execution backend: bit-identity grid, shm lifecycle, telemetry.

The contract under test: under an ambient ``executor="process"`` scope
every batch engine must return byte-identical results to its oracle in
:mod:`repro.oracles` and to the thread backend across the full
``chunk_size x workers`` grid, the shared-memory plane must leave no
``/dev/shm`` residue after :func:`repro.parallel.shutdown` — even after
a worker crash — and child telemetry must merge into the parent
registry, under the dispatching span, so ``--metrics-out`` remains one
coherent document.
"""

from __future__ import annotations

import glob
import os
import pickle

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool

from repro import oracles, parallel, telemetry
from repro.chunking import resolve_chunks
from repro.errors import GraphError
from repro.generators import barabasi_albert
from repro.graph import Graph
from repro.graph.bfs_batch import bfs_distances_block, bfs_level_sizes_block
from repro.graph.shard import ShardedGraph
from repro.markov.batch import batched_tvd_profile
from repro.markov.transition import stationary_distribution, transition_matrix
from repro.markov.walk_batch import (
    walk_block,
    walk_endpoints,
    walk_first_hits,
    walk_visit_counts,
)
from repro.sybil.fusion import loopy_belief_propagation

#: The pinned identity grid: executor x chunk_size x workers.
GRID = [
    (executor, chunk, workers)
    for executor in ("thread", "process")
    for chunk in (1, 7, None)
    for workers in (1, 4)
]

LENGTHS = (1, 2, 5)
WALK_LENGTH = 12


@pytest.fixture(scope="module")
def graph() -> Graph:
    return barabasi_albert(200, 4, seed=13)


@pytest.fixture(scope="module")
def chain(graph) -> tuple:
    """The plain walk's matrix and stationary distribution."""
    return transition_matrix(graph), stationary_distribution(graph)


@pytest.fixture(scope="module")
def sources(graph) -> np.ndarray:
    return np.arange(0, graph.num_nodes, 10)


@pytest.fixture(scope="module")
def sharded(graph, tmp_path_factory) -> ShardedGraph:
    root = tmp_path_factory.mktemp("plane") / "shards"
    return ShardedGraph.from_graph(graph, root, num_shards=4)


class TestResolveExecution:
    def test_defaults_are_thread(self):
        assert parallel.resolve_execution() == ("thread", None, None)

    def test_explicit_process_gets_default_workers(self):
        with parallel.execution(executor="process"):
            kind, workers, _ = parallel.resolve_execution()
        assert kind == "process"
        assert workers >= 1

    def test_ambient_scope_inherited_and_restored(self):
        with parallel.execution(executor="process", workers=4):
            assert parallel.resolve_execution() == ("process", 4, None)
        assert parallel.resolve_execution() == ("thread", None, None)

    def test_auto_resolves_by_worker_count(self):
        with parallel.execution(executor="auto", workers=4):
            assert parallel.resolve_execution() == ("process", 4, None)
        with parallel.execution(executor="auto", workers=1):
            assert parallel.resolve_execution() == ("thread", 1, None)

    def test_unknown_executor_rejected(self):
        with pytest.raises(GraphError, match="unknown executor"):
            with parallel.execution(executor="fork"):
                pass  # pragma: no cover - never entered

    def test_nested_scopes_restore_chunk_size(self):
        assert parallel.schedule() == (None, None, None)
        with parallel.execution(workers=2, chunk_size=3):
            with parallel.execution(chunk_size=5):
                assert parallel.schedule() == (None, 2, 5)
            assert parallel.resolve_execution() == ("thread", 2, 3)
        assert parallel.schedule() == (None, None, None)

    def test_concurrent_scopes_leave_in_any_order(self):
        # pipeline stages enter and leave their scopes on pool threads,
        # so exits need not mirror entries
        first = parallel.execution(workers=2)
        second = parallel.execution(workers=2)
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert parallel.schedule() == (None, 2, None)
        second.__exit__(None, None, None)
        assert parallel.schedule() == (None, None, None)

    @pytest.mark.parametrize(
        "schedule,counter,count",
        [
            (dict(chunk_size=3), "chunking.chunks", 7),
            (dict(executor="process", workers=2, chunk_size=5), "parallel.tasks", 4),
        ],
    )
    def test_chunk_size_reaches_the_walk_engine(
        self, graph, schedule, counter, count
    ):
        sources = np.arange(20)
        expected = walk_endpoints(graph, sources, 9, seed=5)
        with telemetry.activate() as tel, parallel.execution(**schedule):
            out = walk_endpoints(graph, sources, 9, seed=5)
        assert tel.counter(counter) == count
        np.testing.assert_array_equal(out, expected)

    def test_use_processes_needs_fanout(self):
        assert parallel.use_processes("process", 4, 3)
        assert not parallel.use_processes("thread", 4, 3)
        assert not parallel.use_processes("process", 1, 3)
        assert not parallel.use_processes("process", 4, 1)

    def test_run_process_chunks_requires_two_workers(self):
        with pytest.raises(GraphError, match="workers >= 2"):
            parallel.run_process_chunks(
                parallel.probe_chunk, {}, [slice(0, 1)], workers=1
            )


class TestBitIdentityGrid:
    """Every engine, byte-identical across executor x chunk x workers."""

    @pytest.fixture(scope="class")
    def tvd_expected(self, chain, sources):
        return oracles.tvd_profile(*chain, sources, LENGTHS)

    @pytest.mark.parametrize("executor,chunk,workers", GRID)
    def test_tvd_profile(self, chain, sources, tvd_expected, executor, chunk, workers):
        with parallel.execution(executor=executor, chunk_size=chunk, workers=workers):
            out = batched_tvd_profile(*chain, sources, LENGTHS)
        np.testing.assert_array_equal(out, tvd_expected)

    @pytest.fixture(scope="class")
    def levels_expected(self, graph, sources):
        return oracles.bfs_level_sizes_block(graph, sources)

    @pytest.mark.parametrize("executor,chunk,workers", GRID)
    def test_bfs_level_sizes(self, graph, sources, levels_expected, executor, chunk, workers):
        with parallel.execution(executor=executor, chunk_size=chunk, workers=workers):
            out = bfs_level_sizes_block(graph, sources)
        np.testing.assert_array_equal(out, levels_expected)

    @pytest.fixture(scope="class")
    def distances_expected(self, graph, sources):
        return oracles.bfs_distances_block(graph, sources)

    @pytest.mark.parametrize("executor,chunk,workers", GRID)
    def test_bfs_distances(self, graph, sources, distances_expected, executor, chunk, workers):
        with parallel.execution(executor=executor, chunk_size=chunk, workers=workers):
            out = bfs_distances_block(graph, sources)
        np.testing.assert_array_equal(out, distances_expected)

    @pytest.fixture(scope="class")
    def walk_expected(self, graph, sources):
        return oracles.walk_block(graph, sources, WALK_LENGTH, seed=5)

    @pytest.mark.parametrize("executor,chunk,workers", GRID)
    def test_walk_block(self, graph, sources, walk_expected, executor, chunk, workers):
        with parallel.execution(executor=executor, chunk_size=chunk, workers=workers):
            out = walk_block(graph, sources, WALK_LENGTH, seed=5)
        np.testing.assert_array_equal(out, walk_expected)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_walk_modes_match_sequential_oracle(self, graph, sources, executor):
        mask = np.zeros(graph.num_nodes, dtype=bool)
        mask[::7] = True
        expected = [
            oracles.walk_endpoints(graph, sources, 9, seed=5),
            oracles.walk_first_hits(graph, sources, 9, mask, seed=5),
            oracles.walk_visit_counts(graph, sources, WALK_LENGTH, seed=5),
        ]
        with parallel.execution(executor=executor, chunk_size=4, workers=4):
            got = [
                walk_endpoints(graph, sources, 9, seed=5),
                walk_first_hits(graph, sources, 9, mask, seed=5),
                walk_visit_counts(graph, sources, WALK_LENGTH, seed=5),
            ]
        cases = zip(expected, got)
        for expected, got in cases:
            np.testing.assert_array_equal(got, expected)

    def test_ambient_execution_routes_engines(self, chain, sources, tvd_expected):
        with parallel.execution(executor="process", workers=4):
            with telemetry.activate() as tel, parallel.execution(chunk_size=7):
                out = batched_tvd_profile(*chain, sources, LENGTHS)
        np.testing.assert_array_equal(out, tvd_expected)
        assert tel.counters["parallel.process_runs"] >= 1


class TestFusionBitIdentity:
    @pytest.mark.parametrize("chunk,workers", [(1, 4), (97, 4), (None, 4)])
    def test_bp_process_matches_thread(self, graph, chunk, workers):
        rng = np.random.default_rng(3)
        priors = rng.uniform(0.05, 0.95, graph.num_nodes)
        schedule = dict(chunk_size=chunk, workers=workers)
        with parallel.execution(**schedule):
            thread = loopy_belief_propagation(graph, priors, max_rounds=15)
        with parallel.execution(executor="process", **schedule):
            process = loopy_belief_propagation(graph, priors, max_rounds=15)
        np.testing.assert_array_equal(process.beliefs, thread.beliefs)
        assert process.rounds == thread.rounds
        assert process.converged == thread.converged
        assert process.delta == thread.delta


class TestShardedBitIdentity:
    def test_sharded_tvd(self, sharded, sources):
        pi = stationary_distribution(sharded)
        expected = batched_tvd_profile(sharded, pi, sources, LENGTHS)
        with parallel.execution(executor="process", chunk_size=5, workers=4):
            out = batched_tvd_profile(sharded, pi, sources, LENGTHS)
        np.testing.assert_array_equal(out, expected)

    def test_worker_cache_distinguishes_graph_and_sharded(
        self, graph, sharded, sources
    ):
        # regression: worker caches were keyed by digest alone, and a
        # ShardedGraph shares its graph_digest with the equivalent
        # in-RAM Graph — after resolving the GraphRef, the ShardedRef
        # lookup handed the kernel the wrong object
        with parallel.execution(executor="process", chunk_size=4, workers=2):
            walk_endpoints(graph, sources, 9, seed=5)
            out = walk_endpoints(sharded, sources, 9, seed=5)
        expected = oracles.walk_endpoints(sharded, sources, 9, seed=5)
        np.testing.assert_array_equal(out, expected)

    def test_sharded_walks(self, sharded, sources):
        expected = oracles.walk_endpoints(sharded, sources, 9, seed=5)
        with parallel.execution(executor="process", chunk_size=4, workers=4):
            out = walk_endpoints(sharded, sources, 9, seed=5)
        np.testing.assert_array_equal(out, expected)


def _residue() -> list[str]:
    return glob.glob(f"/dev/shm/{parallel.shm_prefix()}*")


shm_fs = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)


class TestShmLifecycle:
    def test_graph_pickle_roundtrip(self, graph):
        # spawn workers receive payload objects by pickle; the Graph
        # wire format must survive the roundtrip bit-for-bit
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.num_nodes == graph.num_nodes
        np.testing.assert_array_equal(clone.indptr, graph.indptr)
        np.testing.assert_array_equal(clone.indices, graph.indices)

    @shm_fs
    def test_release_unlinks_per_call_segments(self):
        spec = parallel.share_array(np.arange(16))
        out_spec, view = parallel.create_output((4, 4), float, fill=0.0)
        assert len(_residue()) >= 2
        del view
        parallel.release([spec, out_spec, None])
        names = {os.path.basename(p) for p in _residue()}
        assert spec.name not in names
        assert out_spec.name not in names

    @shm_fs
    def test_shutdown_sweeps_the_plane(self, graph):
        parallel.publish(graph)
        parallel.share_array(np.arange(32))
        assert _residue()
        parallel.shutdown()
        assert _residue() == []

    @shm_fs
    def test_worker_crash_leaves_no_residue_and_pool_respawns(self, graph):
        chunks = resolve_chunks(8, 4, workers=2)
        with pytest.raises(BrokenProcessPool):
            parallel.run_process_chunks(
                parallel.abort_chunk, {"graph": parallel.publish(graph)},
                chunks, workers=2,
            )
        parallel.shutdown()
        assert _residue() == []
        # the pool respawns lazily and the plane republishes
        results = parallel.run_process_chunks(
            parallel.probe_chunk, {"graph": parallel.publish(graph)},
            chunks, workers=2,
        )
        assert [(r[0], r[1]) for r in results] == [
            (c.start, c.stop) for c in chunks
        ]
        parallel.shutdown()
        assert _residue() == []

    def test_on_result_streams_results_without_keeping_them(self):
        # the visit-count merge path: each result goes to the callback as
        # its chunk finishes, and no list of results is returned
        chunks = resolve_chunks(8, 2, workers=2)
        seen = {}
        out = parallel.run_process_chunks(
            parallel.probe_chunk, {}, chunks, workers=2,
            on_result=lambda i, result: seen.__setitem__(i, result[:2]),
        )
        assert out is None
        assert seen == {i: (c.start, c.stop) for i, c in enumerate(chunks)}

    def test_publish_is_digest_cached(self, graph):
        first = parallel.publish(graph)
        second = parallel.publish(graph)
        assert first is second

    def test_publish_rejects_uncompressed_matrices(self):
        import scipy.sparse as sp

        with pytest.raises(GraphError, match="csr/csc"):
            parallel.publish(sp.coo_matrix(np.eye(3)))


class TestTelemetryMerge:
    def test_child_spans_and_counters_merge(self, chain, sources):
        chunks = resolve_chunks(sources.size, 7, workers=4)
        schedule = parallel.execution(executor="process", chunk_size=7, workers=4)
        with schedule, telemetry.activate() as tel:
            batched_tvd_profile(*chain, sources, LENGTHS)
        # one chunking.chunk span per task, merged from child snapshots
        chunk_spans = _spans_ending(tel.spans, "chunking.chunk")
        assert sum(tel.spans[p].count for p in chunk_spans) == len(chunks)
        assert tel.counters["chunking.chunks"] == len(chunks)
        assert tel.counters["chunking.sources"] == sources.size
        assert tel.counters["parallel.process_runs"] == 1
        assert tel.counters["parallel.tasks"] == len(chunks)
        assert tel.counters["chunking.busy_seconds"] > 0
        assert tel.gauges["parallel.pool_size"] >= 2
        assert 0.0 <= tel.gauges["chunking.worker_utilization"] <= 1.0

    def test_metrics_document_is_one_coherent_json(self, chain, sources, tmp_path):
        schedule = parallel.execution(executor="process", chunk_size=7, workers=4)
        with schedule, telemetry.activate() as tel:
            batched_tvd_profile(*chain, sources, LENGTHS)
            path = tel.write_json(tmp_path / "metrics.json")
        import json

        doc = json.loads(path.read_text())
        counters = doc["counters"]
        assert counters["parallel.process_runs"] == 1
        assert "chunking.busy_seconds" in counters
        assert _spans_ending(doc["spans"], "chunking.chunk")

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_chunk_spans_keep_the_caller_path(self, graph, sources, executor):
        """Inline, pooled and process chunks record the same span paths:
        stage -> engine -> chunk attribution survives parallel runs."""

        def paths(executor: str, workers: int) -> set[str]:
            with parallel.execution(executor=executor, chunk_size=4, workers=workers):
                with telemetry.activate() as tel, tel.span("caller"):
                    walk_endpoints(graph, sources, 9, seed=5)
            return set(tel.spans)

        inline = paths("thread", 1)
        assert (
            "caller/markov.walk.endpoints/chunking.chunk/markov.walk.chunk"
            in inline
        )
        assert paths(executor, 2) == inline


def _spans_ending(spans, name: str) -> list[str]:
    """Span paths whose last component is ``name``."""
    return [p for p in spans if p == name or p.endswith("/" + name)]
