"""Chunk planning and the one dispatcher every batch engine runs on.

The batch engines — the Monte-Carlo walks (:mod:`repro.markov.walk_batch`),
the TVD profile and block evolution (:mod:`repro.markov.batch`), the
block BFS (:mod:`repro.graph.bfs_batch`) and loopy BP
(:mod:`repro.sybil.fusion`) — process independent items in contiguous
chunks.  Chunks write disjoint slices, so results never depend on the
schedule, and no engine takes one: the ambient
:func:`repro.parallel.execution` scope sets it for every call inside
it — ``chunk_size`` bounds the per-chunk working set at
``O(n * chunk_size)``, ``workers`` fans the chunks out and ``executor``
picks the backend.

Each engine supplies one module-level kernel and calls
:func:`run_kernel`, which owns the backend: the thread runner
(:func:`run_chunks`, inline or on a bounded pool) or, under a process
scope, the shared-memory process pool of :mod:`repro.parallel`.  Both
call the same kernel with the same named buffers, so every backend x
``chunk_size`` x ``workers`` combination is bit-identical to the scalar
twins in :mod:`repro.oracles`.  Zero items are a legal, empty plan.

Fan-out reports into :mod:`repro.telemetry` through one helper for both
backends (:func:`record_fanout`): ``chunking.chunk`` spans (the
kernel's span nests inside), chunk/source counters, busy seconds and a
per-run worker utilization gauge.  Chunk spans keep the span path of
the thread that dispatched them, inline, on the pool and in child
processes alike.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace
from typing import Any, Callable, Sequence

import numpy as np

from repro import parallel, telemetry
from repro.errors import GraphError

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "default_workers",
    "resolve_chunks",
    "run_chunks",
    "run_kernel",
    "sample_sources",
    "validate_sources",
]

#: Default number of source columns processed per chunk.  Bounds the
#: dense working set (1-8 bytes per entry of BFS or distribution state)
#: at a few MB per thousand nodes while keeping the sparse structure
#: amortized over many columns.  The walk modes size their default
#: chunk by uniforms instead (:mod:`repro.markov.walk_batch`).
DEFAULT_CHUNK_SIZE = 128

#: Cap on :func:`default_workers` — past this, per-worker dispatch and
#: merge overhead dominates on every workload the repo runs.
MAX_DEFAULT_WORKERS = 8


def default_workers() -> int:
    """Worker count derived from the machine, for callers with no opinion.

    Uses the scheduling affinity mask when the platform exposes one
    (containers often grant fewer cores than ``os.cpu_count`` reports),
    capped at :data:`MAX_DEFAULT_WORKERS`; always at least 1.  The CLI
    and the benchmarks use this instead of hard-coded worker counts.
    """
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        available = os.cpu_count() or 1
    return max(1, min(available, MAX_DEFAULT_WORKERS))


def validate_sources(
    num_nodes: int, sources: np.ndarray | Sequence[int]
) -> np.ndarray:
    """Return engine source ids as an int64 array, checked before dispatch.

    Rejects a non-integer dtype (``astype`` would silently truncate
    ``1.7`` to node 1) and ids outside ``[0, num_nodes)``.  Duplicates
    are allowed, and an empty list of any dtype is returned as an empty
    int64 array; engines that need sources reject it themselves.
    """
    chosen = np.asarray(
        sources if isinstance(sources, np.ndarray) else list(sources)
    )
    if chosen.size == 0:
        return np.empty(0, dtype=np.int64)
    if not np.issubdtype(chosen.dtype, np.integer):
        raise GraphError(f"sources must have an integer dtype, got {chosen.dtype}")
    chosen = chosen.astype(np.int64, copy=False).ravel()
    if chosen.min() < 0 or chosen.max() >= num_nodes:
        raise GraphError(f"sources must be node ids in [0, {num_nodes})")
    return chosen


def sample_sources(
    rng: np.random.Generator, num_nodes: int, count: int, name: str
) -> np.ndarray:
    """Draw ``min(count, num_nodes)`` distinct ids in ``[0, num_nodes)``.

    ``count`` is the caller's ``name`` argument, checked before the
    draw: below 1, numpy would raise its own ``ValueError`` or return
    no sources at all.  The draw is ``rng.choice(num_nodes,
    size=min(count, num_nodes), replace=False)``.
    """
    if count < 1:
        raise GraphError(f"{name} must be at least 1, got {count}")
    return rng.choice(num_nodes, size=min(count, num_nodes), replace=False)


def resolve_chunks(
    num_sources: int,
    chunk_size: int | None,
    workers: int | None,
    default: int = DEFAULT_CHUNK_SIZE,
) -> list[slice]:
    """Split ``num_sources`` columns into contiguous chunk slices.

    ``chunk_size=None`` cuts chunks of the engine's ``default`` size.

    ``num_sources == 0`` yields an empty plan (no chunks) regardless of
    ``chunk_size``/``workers`` — it must not trip the positivity check,
    which is about the *requested* chunk size, not the workload.  A
    *negative* count is always a caller bug (the ``range`` below would
    silently underflow to an empty plan) and raises.
    """
    if num_sources < 0:
        raise GraphError(f"num_sources must be non-negative, got {num_sources}")
    if num_sources == 0:
        return []
    if chunk_size is None:
        size = default
        if workers is not None and workers > 1:
            # Spread the sources across the pool when the default chunk
            # would leave workers idle.
            size = min(size, -(-num_sources // workers))
    else:
        size = int(chunk_size)
    if size < 1:
        raise GraphError("chunk_size must be positive")
    return [slice(lo, min(lo + size, num_sources)) for lo in range(0, num_sources, size)]


def run_kernel(
    kernel: Callable[..., Any],
    num_items: int,
    *,
    inputs: dict[str, Any],
    outputs: dict[str, np.ndarray] | None = None,
    setup: Callable[[SimpleNamespace], None] | None = None,
    merge: Callable[[slice, Any], None] | None = None,
    repeat: Callable[[SimpleNamespace], bool] | None = None,
    span: str | None = None,
    default_chunk: int = DEFAULT_CHUNK_SIZE,
) -> None:
    """Run ``kernel`` over ``num_items`` items in chunks, on either backend.

    Each chunk calls ``kernel(columns, env)``: ``env`` holds ``inputs``
    (read-only) and ``outputs`` (written in disjoint chunk slices) by
    name plus what ``setup(env)`` adds — per-call state built once per
    call (once per call and worker process on the process backend).
    ``merge(columns, result)`` gets each chunk's return value as it
    finishes (serialized); ``repeat(env)`` runs after every pass and
    says whether to dispatch again.  ``span`` names the kernel's span.
    ``default_chunk`` is the chunk size when the scope sets none.

    The schedule — executor, worker count and chunk size — comes from
    the ambient :func:`repro.parallel.execution` scope.  On the process
    backend ``kernel`` and ``setup`` must be module-level; input graphs
    and matrices are published once, arrays go to shared segments kept
    alive across passes, and outputs are copied back into the caller's
    arrays before the segments go.
    """
    kind, workers, chunk_size = parallel.resolve_execution()
    chunks = resolve_chunks(num_items, chunk_size, workers, default_chunk)
    if not chunks:
        return
    outputs = outputs or {}
    if parallel.use_processes(kind, workers, len(chunks)):
        _run_kernel_processes(
            kernel, chunks, workers, inputs, outputs, setup, merge, repeat, span
        )
        return
    env = SimpleNamespace(**inputs, **outputs)
    if setup is not None:
        setup(env)
    lock = threading.Lock()

    def job(columns: slice) -> None:
        result = _call_kernel(kernel, columns, env, span)
        if merge is not None:
            with lock:
                merge(columns, result)

    run_chunks(job, chunks, workers)
    while repeat is not None and repeat(env):
        run_chunks(job, chunks, workers)


def _run_kernel_processes(
    kernel, chunks, workers, inputs, outputs, setup, merge, repeat, span
) -> None:
    """The process half of :func:`run_kernel`."""
    refs: dict[str, Any] = {}
    views: dict[str, np.ndarray] = {}
    try:
        for name, value in inputs.items():
            refs[name] = parallel.share(value)
        for name, array in outputs.items():
            refs[name], views[name] = parallel.create_output(array.shape, array.dtype)
            views[name][...] = array
        payload = {"kernel": kernel, "setup": setup, "span": span, "refs": refs}
        env = SimpleNamespace(**inputs, **views)
        token = parallel.call_token()
        while True:
            parallel.run_process_chunks(
                _kernel_task,
                payload,
                chunks,
                workers,
                call=token,
                on_result=None if merge is None else lambda i, r: merge(chunks[i], r),
            )
            if repeat is None or not repeat(env):
                break
        for name, array in outputs.items():
            array[...] = views[name]
    finally:
        parallel.release(r for r in refs.values() if isinstance(r, parallel.ShmSpec))


def _kernel_task(payload: dict, columns: slice) -> Any:
    """Process-backend chunk task: resolve the call's env once, run the kernel."""
    cache = parallel.call_cache()
    env = cache.get("env")
    if env is None:
        env = SimpleNamespace(
            **{name: parallel.resolve(ref) for name, ref in payload["refs"].items()}
        )
        if payload["setup"] is not None:
            payload["setup"](env)
        cache["env"] = env
    return _call_kernel(payload["kernel"], columns, env, payload["span"])


def _call_kernel(kernel, columns: slice, env, span: str | None) -> Any:
    if span is None:
        return kernel(columns, env)
    with telemetry.current().span(span):
        return kernel(columns, env)


def run_chunks(
    run_chunk: Callable[[slice], None],
    chunks: list[slice],
    workers: int | None,
    span: str | None = "chunking.chunk",
) -> None:
    """Execute chunk jobs inline or on a bounded thread pool.

    An empty chunk list is a no-op that never opens a pool.  ``span``
    names the per-chunk span; ``None`` leaves jobs un-spanned (the
    pipeline's wave runner, whose jobs open their own spans).  Either
    way a job's spans nest under the span open on the calling thread.
    """
    if workers is not None and workers < 1:
        raise GraphError("workers must be positive")
    if not chunks:
        return
    tel = telemetry.current()
    # this run's busy seconds only: the cumulative counter would mix in
    # any overlapping run sharing the registry (list.append is atomic)
    busy: list[float] = []
    if tel.enabled:
        parent, job = tel.current_path(), run_chunk

        def run_chunk(columns: slice) -> None:
            with tel.within(parent):
                busy.append(timed_chunk(tel, span, job, columns)[1])

    pool_size = 1
    start = time.perf_counter()
    if workers is None or workers == 1 or len(chunks) == 1:
        for columns in chunks:
            run_chunk(columns)
    else:
        pool_size = min(workers, len(chunks))
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            # list() re-raises the first chunk failure, if any.
            list(pool.map(run_chunk, chunks))
    if tel.enabled:
        record_fanout(tel, chunks, pool_size, time.perf_counter() - start, sum(busy))


def record_fanout(
    tel: telemetry.Telemetry,
    chunks: Sequence[slice],
    pool_size: int,
    elapsed: float,
    busy: float,
) -> None:
    """Report one fan-out's ``chunking.*`` counters and utilization gauge."""
    tel.count("chunking.chunks", len(chunks))
    tel.count("chunking.sources", sum(c.stop - c.start for c in chunks))
    if pool_size > 1:
        tel.count("chunking.parallel_runs")
        if elapsed > 0:
            tel.gauge(
                "chunking.worker_utilization",
                min(1.0, busy / (pool_size * elapsed)) if busy else 0.0,
            )


def timed_chunk(
    tel: telemetry.Telemetry,
    span: str | None,
    run_chunk: Callable[[slice], Any],
    columns: slice,
) -> tuple[Any, float]:
    """Run one chunk job under ``span``; count and return its busy time."""
    start = time.perf_counter()
    if span is None:
        result = run_chunk(columns)
    else:
        with tel.span(span):
            result = run_chunk(columns)
    elapsed = time.perf_counter() - start
    tel.count("chunking.busy_seconds", elapsed)
    return result, elapsed
