"""Process-pool execution backend with a shared-memory graph plane.

The thread runner in :mod:`repro.chunking` is capped by the GIL whenever
per-chunk Python overhead dominates — small chunks, shard streaming,
loopy-BP rounds.  This module is the second backend of
:func:`repro.chunking.run_kernel`: a persistent, lazily-spawned
**process pool** plus a **shared-memory graph plane**, selected through
the ambient :func:`execution` scope (``executor="thread" | "process" |
"auto"``) — engines never name a backend.

* **Shared-memory plane.**  :func:`publish` places a read-only graph or
  CSR/CSC matrix into ``multiprocessing.shared_memory`` once and
  returns a small picklable ref (:class:`GraphRef` / :class:`CsrRef`);
  a :class:`~repro.graph.shard.ShardedGraph` becomes a
  :class:`ShardedRef` naming its on-disk manifest.  Graph and matrix
  segments are keyed by content digest in a small parent-side LRU, so
  repeated calls on the same graph publish nothing; :func:`share` picks
  the right form for any kernel input.
* **Workers** resolve refs lazily (:func:`resolve`) into their own
  digest-keyed cache; per-call segments and the :func:`call_cache`
  scratch live for one dispatch generation (:func:`call_token`).
* **Persistent pool.**  :func:`run_process_chunks` dispatches to one
  module-level ``ProcessPoolExecutor`` (spawn context, safe on
  macOS/Windows and under threaded parents), grown on demand;
  :func:`shutdown` — also registered ``atexit`` — stops it and unlinks
  every segment, so no ``/dev/shm`` residue outlives the parent even
  after a worker crash.
* **Telemetry.**  Each task runs under a child
  :class:`~repro.telemetry.Telemetry` whose snapshot merges into the
  parent registry under the dispatching thread's span path, beside the
  ``chunking.*`` fan-out and ``parallel.*`` dispatch counters.

:func:`execution` scopes the whole schedule — executor, worker count
and chunk size — so the pipeline wave scheduler, the CLI and the
bit-identity tests reach every nested engine call without a parameter
on any engine signature; :func:`resolve_execution` is what
:func:`repro.chunking.run_kernel` reads it through.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import get_context, shared_memory
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro import chunking, telemetry
from repro.errors import GraphError

__all__ = [
    "EXECUTORS",
    "ShmSpec",
    "GraphRef",
    "CsrRef",
    "ShardedRef",
    "execution",
    "schedule",
    "resolve_execution",
    "use_processes",
    "publish",
    "share",
    "share_array",
    "create_output",
    "release",
    "resolve",
    "call_cache",
    "run_process_chunks",
    "call_token",
    "shutdown",
    "shm_prefix",
]

#: Valid values of the ``executor`` knob.
EXECUTORS = ("thread", "process", "auto")

#: Parent-side LRU bound on published graph/matrix segments.
_PLANE_CACHE = 4

#: Worker-side LRU bound on attached graph/matrix objects.
_WORKER_CACHE = 4


def shm_prefix() -> str:
    """Name prefix of every segment this process publishes.

    Segments are named ``repro_<pid>_<seq>``, so a test session can
    assert that ``/dev/shm`` carries no residue for its own pid after
    :func:`shutdown`.
    """
    return f"repro_{os.getpid()}_"


# ----------------------------------------------------------------------
# ambient execution configuration
# ----------------------------------------------------------------------
_config_lock = threading.Lock()
#: ``(executor, workers, chunk_size)`` of every open scope, in entry
#: order, keyed by a per-scope token.
_scopes: dict[object, tuple[str | None, int | None, int | None]] = {}


def _validate_executor(executor: str | None) -> None:
    if executor is not None and executor not in EXECUTORS:
        raise GraphError(
            f"unknown executor {executor!r}; use one of {EXECUTORS}"
        )


@contextmanager
def execution(
    executor: str | None = None,
    workers: int | None = None,
    chunk_size: int | None = None,
) -> Iterator[None]:
    """Scope the batch engines' schedule to a ``with`` block.

    Every :func:`repro.chunking.run_kernel` call inside the block runs
    on ``executor``, fans its chunks out over ``workers`` and cuts its
    items into chunks of ``chunk_size`` (default: the engine's own,
    :data:`repro.chunking.DEFAULT_CHUNK_SIZE` for all but the walk
    modes, spread over the workers).  Results never depend on the schedule, so no engine takes
    it as an argument: the CLI, the pipeline wave scheduler and callers
    that bound memory set it here for every nested engine call.  A
    field left ``None`` keeps the enclosing scope's value, and leaving
    the block restores it.
    """
    _validate_executor(executor)
    for name, value in (("workers", workers), ("chunk_size", chunk_size)):
        if value is not None and value < 1:
            raise GraphError(f"{name} must be positive")
    token = object()
    with _config_lock:
        _scopes[token] = (executor, workers, chunk_size)
    try:
        yield
    finally:
        # by token, not as a stack: concurrent pipeline stages may
        # leave their scopes in any order
        with _config_lock:
            del _scopes[token]


def schedule() -> tuple[str | None, int | None, int | None]:
    """The ``(executor, workers, chunk_size)`` the open scopes set.

    Each field comes from the innermost scope that sets it; ``None``
    means no open scope does.
    """
    with _config_lock:
        frames = list(_scopes.values())
    return tuple(
        next((frame[i] for frame in reversed(frames) if frame[i] is not None), None)
        for i in range(3)
    )


def resolve_execution() -> tuple[str, int | None, int | None]:
    """Resolve the effective ``(executor, workers, chunk_size)`` of a call.

    The ambient :func:`execution` scope beats the defaults
    (``"thread"``, ``None``, ``None``).  ``"auto"`` becomes
    ``"process"`` when the effective worker count exceeds one and
    ``"thread"`` otherwise; a process request with no worker count gets
    :func:`repro.chunking.default_workers`.
    """
    executor, workers, chunk_size = schedule()
    kind = executor or "thread"
    if kind == "auto":
        effective = workers if workers is not None else chunking.default_workers()
        kind = "process" if effective > 1 else "thread"
        if kind == "process":
            workers = effective
    elif kind == "process" and workers is None:
        workers = chunking.default_workers()
    return kind, workers, chunk_size


def use_processes(kind: str, workers: int | None, num_chunks: int) -> bool:
    """Whether a resolved call should dispatch to the process pool.

    Single-worker or single-chunk plans run on the thread path — there
    is nothing to parallelize, and the thread path is inline (and
    cheaper) in exactly those cases.
    """
    return kind == "process" and workers is not None and workers > 1 and num_chunks > 1


# ----------------------------------------------------------------------
# shared-memory plane (parent side)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShmSpec:
    """Picklable handle to one shared-memory ndarray."""

    name: str
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class GraphRef:
    """Picklable handle to a CSR graph published on the plane."""

    digest: str
    num_nodes: int
    indptr: ShmSpec
    indices: ShmSpec


@dataclass(frozen=True)
class CsrRef:
    """Picklable handle to a scipy CSR/CSC matrix published on the plane."""

    digest: str
    format: str
    shape: tuple[int, int]
    data: ShmSpec
    indices: ShmSpec
    indptr: ShmSpec


@dataclass(frozen=True)
class ShardedRef:
    """Picklable handle to an on-disk sharded graph (reopened by path)."""

    root: str
    digest: str
    max_resident: int | None


class _Plane:
    """Parent-side registry of every live published segment."""

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.segments: dict[str, shared_memory.SharedMemory] = {}
        self.graphs: OrderedDict[str, GraphRef] = OrderedDict()
        self.matrices: OrderedDict[str, CsrRef] = OrderedDict()
        self.seq = itertools.count()


_plane = _Plane()


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    name = f"{shm_prefix()}{next(_plane.seq)}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=max(nbytes, 1))
    with _plane.lock:
        _plane.segments[name] = shm
    telemetry.current().count("parallel.shm_bytes", shm.size)
    return shm


def _segment_view(shm: shared_memory.SharedMemory, spec: ShmSpec) -> np.ndarray:
    return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)


def share_array(array: np.ndarray) -> ShmSpec:
    """Copy ``array`` into a fresh shared segment and return its spec.

    The caller owns the segment's lifetime: pass the spec to
    :func:`release` when the dispatch that used it completes (or leave
    it for :func:`shutdown` to sweep).
    """
    array = np.ascontiguousarray(array)
    shm = _create_segment(array.nbytes)
    spec = ShmSpec(shm.name, tuple(array.shape), array.dtype.str)
    if array.size:
        _segment_view(shm, spec)[...] = array
    return spec


def create_output(
    shape: tuple[int, ...], dtype: Any, fill: Any = None
) -> tuple[ShmSpec, np.ndarray]:
    """Allocate a shared output buffer; return ``(spec, parent view)``.

    Workers attach via :func:`resolve` and write disjoint chunk slices;
    the parent copies the view out and calls :func:`release`.
    """
    dt = np.dtype(dtype)
    nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
    shm = _create_segment(nbytes)
    spec = ShmSpec(shm.name, tuple(shape), dt.str)
    view = _segment_view(shm, spec)
    if fill is not None and view.size:
        view[...] = fill
    return spec, view


def _discard_segment(shm: shared_memory.SharedMemory) -> None:
    """Close + unlink one owned segment, tolerating live views.

    ``close`` raises :class:`BufferError` while ndarray views of the
    buffer are still alive; the *unlink* must happen regardless — it
    removes the ``/dev/shm`` name immediately, and the memory itself is
    freed when the last mapping is garbage-collected.
    """
    try:
        shm.close()
    except BufferError:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def release(specs: Iterable[ShmSpec | None]) -> None:
    """Unlink per-call segments (graph-plane entries are kept cached)."""
    with _plane.lock:
        for spec in specs:
            if spec is None:
                continue
            shm = _plane.segments.pop(spec.name, None)
            if shm is not None:
                _discard_segment(shm)


def _release_ref(ref: GraphRef | CsrRef) -> None:
    specs = (
        (ref.indptr, ref.indices)
        if isinstance(ref, GraphRef)
        else (ref.data, ref.indices, ref.indptr)
    )
    release(specs)


def _cache_insert(cache: OrderedDict, digest: str, ref: GraphRef | CsrRef) -> None:
    cache[digest] = ref
    cache.move_to_end(digest)
    while len(cache) > _PLANE_CACHE:
        _, evicted = cache.popitem(last=False)
        _release_ref(evicted)


def publish_graph(graph: Any) -> GraphRef:
    """Publish a resident :class:`~repro.graph.core.Graph` (digest-cached)."""
    from repro.store import graph_digest

    digest = graph_digest(graph)
    with _plane.lock:
        ref = _plane.graphs.get(digest)
        if ref is not None:
            _plane.graphs.move_to_end(digest)
            return ref
        ref = GraphRef(
            digest=digest,
            num_nodes=graph.num_nodes,
            indptr=share_array(graph.indptr),
            indices=share_array(graph.indices),
        )
        _cache_insert(_plane.graphs, digest, ref)
        return ref


def publish_matrix(matrix: Any) -> CsrRef:
    """Publish a scipy CSR/CSC matrix, keyed by a content digest.

    Only the compressed formats are supported — they are the only ones
    the engines produce, and rebuilding the same format in the worker
    preserves scipy's reduction order (the bit-identity contract).
    """
    if matrix.format not in ("csr", "csc"):
        raise GraphError(
            f"process backend requires a csr/csc matrix, got {matrix.format!r}"
        )
    hasher = hashlib.sha256(b"repro-matrix-digest-v1")
    hasher.update(matrix.format.encode())
    hasher.update(repr(matrix.shape).encode())
    for array in (matrix.indptr, matrix.indices, matrix.data):
        hasher.update(np.ascontiguousarray(array).tobytes())
    digest = hasher.hexdigest()
    with _plane.lock:
        ref = _plane.matrices.get(digest)
        if ref is not None:
            _plane.matrices.move_to_end(digest)
            return ref
        ref = CsrRef(
            digest=digest,
            format=matrix.format,
            shape=tuple(matrix.shape),
            data=share_array(matrix.data),
            indices=share_array(matrix.indices),
            indptr=share_array(matrix.indptr),
        )
        _cache_insert(_plane.matrices, digest, ref)
        return ref


def publish(obj: Any) -> GraphRef | CsrRef | ShardedRef:
    """Publish a graph-like object and return the matching picklable ref."""
    from repro.graph.core import Graph
    from repro.graph.shard import ShardedGraph

    if isinstance(obj, ShardedGraph):
        return ShardedRef(
            root=str(obj.root),
            digest=obj.graph_digest,
            max_resident=getattr(obj, "_max_resident", None),
        )
    if isinstance(obj, Graph):
        return publish_graph(obj)
    return publish_matrix(obj)


def share(value: Any) -> Any:
    """Return the picklable form of one kernel input.

    ndarrays are copied into a fresh per-call segment (the caller
    releases its :class:`ShmSpec`); graphs, sharded graphs and sparse
    matrices are published (digest-cached); anything else — scalars,
    tuples, ``None`` — travels by pickle unchanged.
    """
    import scipy.sparse as sp

    from repro.graph.core import Graph
    from repro.graph.shard import ShardedGraph

    if isinstance(value, np.ndarray):
        return share_array(value)
    if isinstance(value, (Graph, ShardedGraph)) or sp.issparse(value):
        return publish(value)
    return value


# ----------------------------------------------------------------------
# worker-side resolution
# ----------------------------------------------------------------------
_worker_graphs: OrderedDict[str, tuple[Any, tuple]] = OrderedDict()
_worker_call_arrays: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}
_worker_call_cache: dict[str, Any] = {}
_worker_call: Any = None


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without adopting its lifetime.

    ``SharedMemory(name=...)`` registers the mapping with the resource
    tracker, which would *unlink* the segment when the worker exits —
    destroying it for the parent and every sibling.  Python 3.13+
    exposes ``track=False``; on older versions registration is
    suppressed during the attach instead.  (Unregistering *after* the
    attach is wrong here: spawn children share the parent's tracker
    process, so a worker-side unregister would erase the parent's own
    registration of the segment.)
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shm(rname: str, rtype: str) -> None:
            if rtype != "shared_memory":  # pragma: no cover - not hit here
                original(rname, rtype)

        resource_tracker.register = _skip_shm
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _begin_call(call: Any) -> None:
    """Drop the previous call's per-call attachments on a new dispatch."""
    global _worker_call
    if call == _worker_call:
        return
    _worker_call_cache.clear()  # drop views into the segments closed below
    for name in list(_worker_call_arrays):
        shm, view = _worker_call_arrays.pop(name)
        del view
        try:
            shm.close()
        except BufferError:  # a kernel kept a view; GC unmaps it later
            pass
    _worker_call = call


def call_cache() -> dict[str, Any]:
    """Worker-side scratch that lives for one dispatch generation.

    Cleared when a task of a different call arrives, so per-call state
    a kernel builds from its inputs (a walk stepper, a float32
    adjacency) is built once per call and worker, and reused across the
    rounds of an iterative engine that dispatches under one token.
    """
    return _worker_call_cache


def _worker_cache_put(key: str, value: Any, keepalive: tuple) -> None:
    # Evicted entries are only dropped, not closed: their Graph/matrix
    # may still be referenced by in-flight work, and the mappings unmap
    # when the last view is garbage-collected.
    _worker_graphs[key] = (value, keepalive)
    _worker_graphs.move_to_end(key)
    while len(_worker_graphs) > _WORKER_CACHE:
        _worker_graphs.popitem(last=False)


def resolve(ref: Any) -> Any:
    """Materialize a plane ref inside the current worker process.

    * :class:`ShmSpec` → writable ndarray view (cached per dispatch);
    * :class:`GraphRef` → :class:`~repro.graph.core.Graph` over the
      shared CSR arrays (cached per worker by digest);
    * :class:`CsrRef` → the scipy matrix in its published format
      (cached per worker by digest);
    * :class:`ShardedRef` → :class:`~repro.graph.shard.ShardedGraph`
      reopened from its manifest with the published residency bound
      (cached per worker by digest);
    * anything else is returned unchanged.
    """
    if isinstance(ref, ShmSpec):
        cached = _worker_call_arrays.get(ref.name)
        if cached is not None:
            return cached[1]
        shm = _attach_segment(ref.name)
        view = _segment_view(shm, ref)
        _worker_call_arrays[ref.name] = (shm, view)
        return view
    if isinstance(ref, GraphRef):
        # cache keys are namespaced by ref type: a ShardedGraph's
        # graph_digest equals the digest of the equivalent in-RAM
        # Graph, and the two resolve to different objects
        key = f"graph:{ref.digest}"
        cached = _worker_graphs.get(key)
        if cached is not None:
            _worker_graphs.move_to_end(key)
            return cached[0]
        from repro.graph.core import Graph

        indptr_shm = _attach_segment(ref.indptr.name)
        indices_shm = _attach_segment(ref.indices.name)
        graph = Graph(
            _segment_view(indptr_shm, ref.indptr),
            _segment_view(indices_shm, ref.indices),
        )
        _worker_cache_put(key, graph, (indptr_shm, indices_shm))
        return graph
    if isinstance(ref, CsrRef):
        key = f"matrix:{ref.digest}"
        cached = _worker_graphs.get(key)
        if cached is not None:
            _worker_graphs.move_to_end(key)
            return cached[0]
        import scipy.sparse as sp

        cls = sp.csr_matrix if ref.format == "csr" else sp.csc_matrix
        shms = tuple(
            _attach_segment(spec.name)
            for spec in (ref.data, ref.indices, ref.indptr)
        )
        arrays = tuple(
            _segment_view(shm, spec)
            for shm, spec in zip(shms, (ref.data, ref.indices, ref.indptr))
        )
        matrix = cls(arrays, shape=ref.shape)
        _worker_cache_put(key, matrix, shms)
        return matrix
    if isinstance(ref, ShardedRef):
        key = f"sharded:{ref.digest}"
        cached = _worker_graphs.get(key)
        if cached is not None:
            _worker_graphs.move_to_end(key)
            return cached[0]
        from repro.graph.shard import ShardedGraph

        sharded = ShardedGraph.open(ref.root, max_resident_shards=ref.max_resident)
        _worker_cache_put(key, sharded, ())
        return sharded
    return ref


# ----------------------------------------------------------------------
# the persistent pool and chunk dispatcher
# ----------------------------------------------------------------------
_pool_lock = threading.Lock()
_pool: ProcessPoolExecutor | None = None
_pool_size = 0
_call_counter = itertools.count()


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent pool, lazily spawned and grown (never shrunk).

    The spawn start method keeps workers import-clean (no inherited
    locks from a threaded parent; the same code path macOS/Windows
    would take), which is why engines that reach this backend must be
    spawn-safe: module-level kernels, picklable payloads.
    """
    global _pool, _pool_size
    with _pool_lock:
        broken = _pool is not None and getattr(_pool, "_broken", False)
        if _pool is None or broken or _pool_size < workers:
            if _pool is not None:
                _pool.shutdown(wait=False, cancel_futures=True)
            size = max(workers, _pool_size)
            _pool = ProcessPoolExecutor(
                max_workers=size, mp_context=get_context("spawn")
            )
            _pool_size = size
            tel = telemetry.current()
            tel.count("parallel.pool_spawns")
            tel.gauge("parallel.pool_size", size)
        return _pool


def _invalidate_pool(pool: ProcessPoolExecutor) -> None:
    global _pool, _pool_size
    with _pool_lock:
        if _pool is pool:
            _pool.shutdown(wait=False, cancel_futures=True)
            _pool = None
            _pool_size = 0


def _run_task(
    fn: Callable[[dict, slice], Any],
    payload: dict,
    chunk: slice,
    span: str | None,
    record: bool,
) -> tuple[Any, dict | None]:
    """Worker entry: run one chunk under a child telemetry registry."""
    _begin_call(payload.get("_call"))
    if not record:
        return fn(payload, chunk), None
    child = telemetry.Telemetry()
    with telemetry.activate(child):
        result, _ = chunking.timed_chunk(
            child, span, lambda columns: fn(payload, columns), chunk
        )
    return result, child.snapshot()


def probe_chunk(payload: dict, columns: slice) -> tuple[int, int, int]:
    """Diagnostic task: report ``(start, stop, worker pid)``."""
    return columns.start, columns.stop, os.getpid()


def abort_chunk(payload: dict, columns: slice) -> None:
    """Crash-injection task for lifecycle tests: hard-exit the worker."""
    os._exit(int(payload.get("code", 1)))


def call_token() -> tuple[int, int]:
    """Fresh dispatch-generation token for multi-dispatch callers.

    Per-call worker attachments (shared input/output buffers) are
    dropped when a task arrives with a *different* token.  Iterative
    engines — loopy BP dispatches once per round against the same
    buffers — mint one token and pass it to every
    :func:`run_process_chunks` call of the iteration, so workers keep
    their attachments across rounds.
    """
    return (os.getpid(), next(_call_counter))


def run_process_chunks(
    fn: Callable[[dict, slice], Any],
    payload: dict,
    chunks: Sequence[slice],
    workers: int,
    span: str | None = "chunking.chunk",
    call: tuple[int, int] | None = None,
    on_result: Callable[[int, Any], None] | None = None,
) -> list[Any] | None:
    """Dispatch chunk jobs to the persistent process pool.

    ``fn(payload, chunk)`` must be a module-level callable (pickled by
    reference); ``payload`` values may be plane refs, resolved in the
    worker via :func:`resolve`.  Results are returned in chunk order — or, with ``on_result``,
    handed to ``on_result(chunk index, result)`` as each chunk finishes
    and not kept.  The first failing chunk re-raises in the parent.
    Fan-out telemetry matches the thread runner (``chunking.*``) plus
    ``parallel.*`` dispatch counters, and every task's child-telemetry
    snapshot is merged into the parent registry under the calling
    thread's span path.
    """
    if workers < 2:
        raise GraphError("run_process_chunks requires workers >= 2")
    if not chunks:
        return []
    tel = telemetry.current()
    record = tel.enabled
    prefix = tel.current_path() if record else None
    pool_size = min(workers, len(chunks))
    pool = _get_pool(pool_size)
    if call is None:
        call = call_token()
    start = time.perf_counter()
    pending = {}
    for index, chunk in enumerate(chunks):
        task_payload = dict(payload)
        task_payload["_call"] = call
        future = pool.submit(_run_task, fn, task_payload, chunk, span, record)
        pending[future] = index
    results: list[Any] | None = [None] * len(chunks) if on_result is None else None
    busy = 0.0
    try:
        # as_completed drops its references to each future it yields,
        # so a result handed to on_result is not kept alive here
        for future in as_completed(pending):
            index = pending.pop(future)
            result, snapshot = future.result()
            if snapshot is not None:
                busy += snapshot["counters"].get("chunking.busy_seconds", 0.0)
                tel.merge(snapshot, prefix=prefix)
            if on_result is None:
                results[index] = result
            else:
                on_result(index, result)
            del future, result
    except BrokenProcessPool:
        _invalidate_pool(pool)
        raise
    if record:
        elapsed = time.perf_counter() - start
        chunking.record_fanout(tel, chunks, pool_size, elapsed, busy)
        tel.count("parallel.process_runs")
        tel.count("parallel.tasks", len(chunks))
        tel.count("parallel.dispatch_seconds", elapsed)
    return results


def shutdown() -> None:
    """Stop the pool and unlink every published segment.

    Idempotent; registered ``atexit``.  Also the recovery path after a
    worker crash (the plane is parent-owned, so a dead worker can never
    leak a segment past this call).
    """
    global _pool, _pool_size
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=True, cancel_futures=True)
            _pool = None
            _pool_size = 0
    with _plane.lock:
        _plane.graphs.clear()
        _plane.matrices.clear()
        for name in list(_plane.segments):
            _discard_segment(_plane.segments.pop(name))


atexit.register(shutdown)
