"""Unit and regression tests for the shared chunk planner/runner.

Covers the two confirmed empty-source-set crashes (PR 4):

* ``resolve_chunks(0, None, workers=4)`` used to raise
  ``GraphError("chunk_size must be positive")`` because the
  worker-spread heuristic computed a chunk size of 0.
* ``run_chunks(fn, [], workers>1)`` used to raise
  ``ValueError: max_workers must be greater than 0`` from
  ``ThreadPoolExecutor(max_workers=0)``.

Both are also pinned where users hit them: the public entry points of
the walk engine (``markov.batch.batched_tvd_profile`` /
``evolve_block``).
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import threading

import numpy as np
import pytest

import repro
from repro import oracles, telemetry
from repro.chunking import DEFAULT_CHUNK_SIZE, resolve_chunks, run_chunks
from repro.errors import GraphError
from repro.markov.batch import batched_tvd_profile, evolve_block
from repro.markov.transition import stationary_distribution
from repro.parallel import execution


class TestEmptySourceRegressions:
    """Failing-before/passing-after pins for the confirmed crashes."""

    def test_resolve_chunks_zero_sources_with_worker_spread(self):
        # regression: the workers>1 heuristic computed ceil(0/4) == 0
        # and tripped the chunk-size positivity check
        assert resolve_chunks(0, None, workers=4) == []

    @pytest.mark.parametrize("chunk_size", [None, 1, 64])
    @pytest.mark.parametrize("workers", [None, 1, 4])
    def test_resolve_chunks_zero_sources_all_knobs(self, chunk_size, workers):
        assert resolve_chunks(0, chunk_size, workers) == []

    def test_run_chunks_empty_list_parallel_is_noop(self):
        # regression: ThreadPoolExecutor(max_workers=min(4, 0)) raised
        calls: list[slice] = []
        run_chunks(calls.append, [], workers=4)
        assert calls == []

    @pytest.mark.parametrize("workers", [None, 1, 4])
    def test_run_chunks_empty_list_is_noop(self, workers):
        calls: list[slice] = []
        run_chunks(calls.append, [], workers=workers)
        assert calls == []

    def test_batched_tvd_profile_empty_sources(self, k5):
        # the walk engine's public face: (0, len(walk_lengths)) result
        with execution(workers=4):
            tvd = batched_tvd_profile(k5, stationary_distribution(k5), [], [1, 2, 5])
        assert tvd.shape == (0, 3)

    def test_batched_tvd_profile_empty_sources_still_validates_lengths(
        self, k5
    ):
        with pytest.raises(GraphError):
            batched_tvd_profile(k5, stationary_distribution(k5), [], [2, 1])

    def test_evolve_many_zero_column_block(self, k5):
        # evolve_block moves a zero-column block whole, under any scope
        block = np.zeros((5, 0))
        with execution(chunk_size=2, workers=4):
            out = evolve_block(k5, block, steps=3)
        assert out.shape == (5, 0)


class TestResolveChunksGrid:
    """Parametrized edge-case grid: coverage is an exact disjoint
    partition of [0, num_sources) in order."""

    @pytest.mark.parametrize("num_sources", [0, 1, 63, 64, 65, 1000])
    @pytest.mark.parametrize("chunk_size", [None, 1, 64])
    @pytest.mark.parametrize("workers", [None, 1, 4])
    def test_exact_disjoint_partition(self, num_sources, chunk_size, workers):
        chunks = resolve_chunks(num_sources, chunk_size, workers)
        covered = np.concatenate(
            [np.arange(c.start, c.stop) for c in chunks]
            or [np.empty(0, dtype=np.int64)]
        )
        assert np.array_equal(covered, np.arange(num_sources))
        for c in chunks:
            assert c.start < c.stop  # no empty chunks in the plan
        if num_sources == 0:
            assert chunks == []

    @pytest.mark.parametrize("num_sources", [1, 63, 64, 65, 1000])
    def test_explicit_chunk_size_respected(self, num_sources):
        chunks = resolve_chunks(num_sources, 64, None)
        assert all(c.stop - c.start <= 64 for c in chunks)
        assert all(c.stop - c.start == 64 for c in chunks[:-1])

    def test_worker_spread_heuristic_fills_the_pool(self):
        # 100 sources over 4 workers: the default 128-chunk would leave
        # 3 workers idle; the heuristic shrinks chunks to ceil(100/4)
        chunks = resolve_chunks(100, None, workers=4)
        assert len(chunks) == 4
        assert all(c.stop - c.start <= 25 for c in chunks)

    def test_default_chunk_size_without_workers(self):
        chunks = resolve_chunks(1000, None, None)
        assert chunks[0] == slice(0, DEFAULT_CHUNK_SIZE)

    def test_negative_num_sources_rejected(self):
        # regression: range(0, -5, size) silently produced an empty
        # plan, hiding caller bugs as empty results
        with pytest.raises(GraphError, match="non-negative"):
            resolve_chunks(-1, None, None)
        with pytest.raises(GraphError, match="-5"):
            resolve_chunks(-5, 64, 4)

    def test_nonpositive_chunk_size_rejected(self):
        with pytest.raises(GraphError):
            resolve_chunks(10, 0, None)
        with pytest.raises(GraphError):
            resolve_chunks(10, -3, None)

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(GraphError):
            run_chunks(lambda c: None, [slice(0, 1)], workers=0)


class TestRunChunksDeterminism:
    @pytest.mark.parametrize("num_sources", [1, 63, 64, 65, 1000])
    @pytest.mark.parametrize("chunk_size", [None, 1, 64])
    @pytest.mark.parametrize("workers", [None, 1, 4])
    def test_disjoint_writes_are_deterministic(
        self, num_sources, chunk_size, workers
    ):
        chunks = resolve_chunks(num_sources, chunk_size, workers)
        out = np.zeros(num_sources, dtype=np.int64)

        def fill(columns: slice) -> None:
            out[columns] = np.arange(columns.start, columns.stop)

        run_chunks(fill, chunks, workers)
        assert np.array_equal(out, np.arange(num_sources))

    def test_every_chunk_runs_exactly_once_parallel(self):
        chunks = resolve_chunks(257, 16, 4)
        seen: list[tuple[int, int]] = []
        lock = threading.Lock()

        def record(columns: slice) -> None:
            with lock:
                seen.append((columns.start, columns.stop))

        run_chunks(record, chunks, workers=4)
        assert sorted(seen) == [(c.start, c.stop) for c in chunks]

    def test_chunk_failure_propagates(self):
        def boom(columns: slice) -> None:
            raise RuntimeError("chunk failed")

        with pytest.raises(RuntimeError):
            run_chunks(boom, resolve_chunks(10, 2, 4), workers=4)


class TestChunkingTelemetry:
    def test_fanout_reports_chunks_and_sources(self):
        with telemetry.activate() as tel:
            chunks = resolve_chunks(100, 10, 4)
            run_chunks(lambda c: None, chunks, workers=4)
        assert tel.counter("chunking.chunks") == 10
        assert tel.counter("chunking.sources") == 100
        assert tel.spans["chunking.chunk"].count == 10
        assert tel.counter("chunking.parallel_runs") == 1
        assert 0.0 <= tel.gauges["chunking.worker_utilization"] <= 1.0

    def test_utilization_gauge_uses_per_run_delta(self):
        # regression: the gauge divided the *cumulative* busy counter by
        # this run's elapsed time, so every parallel run after the first
        # read near the 1.0 clamp regardless of actual pool usage
        import time

        def slow(columns: slice) -> None:
            time.sleep(0.05)

        def half_idle(columns: slice) -> None:
            if columns.start == 0:
                time.sleep(0.05)

        with telemetry.activate() as tel:
            run_chunks(slow, resolve_chunks(4, 1, 2), workers=2)
            busy_after_first = tel.counter("chunking.busy_seconds")
            run_chunks(half_idle, resolve_chunks(2, 1, 2), workers=2)
        # second run: one worker sleeps ~50ms, the other is idle; with
        # the cumulative-counter bug the gauge stayed pinned at 1.0
        assert busy_after_first >= 0.1
        assert 0.0 < tel.gauges["chunking.worker_utilization"] <= 0.9

    def test_utilization_gauge_isolated_across_concurrent_runs(self):
        # regression: two *overlapping* parallel runs sharing one
        # registry.  Busy time is accumulated per run, so the long run's
        # gauge must reflect only its own half-idle pool (~0.5) — under
        # the shared-counter scheme the short run's busy deltas leaked
        # in and pushed it toward the 1.0 clamp.
        import time

        def half_idle(columns: slice) -> None:
            if columns.start == 0:
                time.sleep(0.2)

        def busy(columns: slice) -> None:
            time.sleep(0.05)

        with telemetry.activate() as tel:
            long_run = threading.Thread(
                target=run_chunks,
                args=(half_idle, resolve_chunks(2, 1, 2), 2),
            )
            long_run.start()
            # the short run starts inside the long run's window and
            # finishes well before it, so the long run writes the gauge
            # last
            time.sleep(0.02)
            run_chunks(busy, resolve_chunks(2, 1, 2), workers=2)
            long_run.join()
        # correct per-run accounting: ~0.2s busy / (2 workers x ~0.2s)
        assert 0.2 <= tel.gauges["chunking.worker_utilization"] <= 0.75
        # while the global counter still sums across both runs
        assert tel.counter("chunking.busy_seconds") >= 0.25

    def test_inline_run_has_no_parallel_metrics(self):
        with telemetry.activate() as tel:
            run_chunks(lambda c: None, resolve_chunks(10, 5, None), None)
        assert tel.counter("chunking.parallel_runs") == 0
        assert "chunking.worker_utilization" not in tel.gauges

    def test_disabled_registry_records_nothing(self):
        chunks = resolve_chunks(100, 10, 4)
        run_chunks(lambda c: None, chunks, workers=4)
        assert telemetry.current().counters == {}


#: The schedule knobs only the ambient scope may set.
SCHEDULE = {"chunk_size", "workers"}

#: The pipeline front doors, which keep ``workers`` for their wave pool.
PIPELINES = {
    "repro.pipeline.Pipeline",
    "repro.pipeline.paper_measurement_pipeline",
    "repro.pipeline.fusion_comparison_pipeline",
    "repro.privacy.frontier.privacy_frontier_pipeline",
}


def _public_callables(module):
    """``(qualified name, callable)`` for every public function, class
    (its constructor) and method ``module`` defines."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or inspect.isclass(obj):
            yield f"{module.__name__}.{name}", obj
        if not inspect.isclass(obj):
            continue
        for attr, member in vars(obj).items():
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            if not attr.startswith("_") and inspect.isfunction(member):
                yield f"{module.__name__}.{name}.{attr}", member


def _parameter_names(obj) -> set[str]:
    """Parameter names of a callable, plus a dataclass's field names."""
    try:
        names = set(inspect.signature(obj).parameters)
    except ValueError:  # builtin-derived classes (exceptions) have none
        names = set()
    if dataclasses.is_dataclass(obj):
        names |= {f.name for f in dataclasses.fields(obj)}
    return names


def test_no_engine_takes_a_schedule_argument():
    """Results never depend on the schedule, so it is set only through
    :func:`repro.parallel.execution`: no public function, method or
    dataclass field below the pipeline takes ``chunk_size`` or
    ``workers``."""
    offenders = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name in ("repro.__main__", "repro.parallel", "repro.chunking",
                         "repro.oracles"):
            continue
        for qualname, obj in _public_callables(importlib.import_module(info.name)):
            found = _parameter_names(obj) & SCHEDULE
            if qualname in PIPELINES:
                found -= {"workers"}
            if found:
                offenders.append(f"{qualname}: {sorted(found)}")
    assert offenders == []
