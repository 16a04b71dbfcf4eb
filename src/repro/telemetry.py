"""Lightweight instrumentation: span timers, counters and gauges.

Every hot layer of the library — the chunk planner/runner
(:mod:`repro.chunking`), the batched walk and BFS engines
(:mod:`repro.markov.batch`, :mod:`repro.graph.bfs_batch`), the artifact
store (:mod:`repro.store`) and the stage-DAG pipeline
(:mod:`repro.pipeline`) — reports into one shared :class:`Telemetry`
registry, so a single run can answer "where did the time go, and what
did the cache do?" without ad-hoc timers.

Three instrument kinds:

* **Spans** — nestable wall + CPU timers.  ``with tel.span("mixing"):``
  aggregates all activations of the same *path* (nested spans get
  dot-joined names, ``pipeline.stage.mixing/chunking.chunk``-style) into
  one :class:`SpanStats` row: activation count, total wall seconds,
  total thread-CPU seconds.  Nesting is tracked per thread;
  :meth:`Telemetry.within` lets a pool thread nest its spans under the
  span open on the thread that dispatched the work.
* **Counters** — monotonically accumulated named integers/floats
  (``tel.count("store.hits")``).  Increments are lock-guarded, so
  counters are exact under the thread fan-out the engines use.
* **Gauges** — last-value (``tel.gauge``) or running-max
  (``tel.gauge_max``) observations, e.g. pipeline wave occupancy.
* **Distributions** — per-observation samples (``tel.observe``) kept in
  a bounded buffer and summarized (count/mean/p50/p95/p99/max) in the
  metrics document, e.g. per-request serving latency in
  :mod:`repro.serve`.  Summaries appear under an additive
  ``distributions`` key, so the document schema stays at version 1.

The module-level registry defaults to a **no-op** instance: every
``span``/``count``/``gauge`` call on a disabled :class:`Telemetry`
returns immediately (spans hand back one shared null context manager),
so instrumented hot paths cost a single attribute check when telemetry
is off.  :func:`activate` installs a recording registry for the length
of a ``with`` block (the CLI's ``--metrics-out``, tests, benchmarks).

:meth:`Telemetry.to_json` renders a canonical metrics document — schema
version, sorted keys, stable float formatting via ``json`` — suitable
for diffing across runs and for the ``--metrics-out`` CLI flag.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

__all__ = [
    "SCHEMA_VERSION",
    "DISTRIBUTION_CAPACITY",
    "SpanStats",
    "Telemetry",
    "NULL_TELEMETRY",
    "current",
    "activate",
]

#: Version of the metrics-document schema emitted by :meth:`Telemetry.as_dict`.
#: The ``distributions`` key is additive, so it did not bump the version.
SCHEMA_VERSION = 1

#: Samples kept per distribution; older observations are dropped beyond this.
DISTRIBUTION_CAPACITY = 65536


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list."""
    rank = max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


@dataclass
class SpanStats:
    """Aggregated timings for every activation of one span path."""

    name: str
    count: int = 0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0


class _NullSpan:
    """Reusable no-op context manager returned by disabled telemetry."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span activation; records into its registry on exit."""

    __slots__ = ("_telemetry", "_name", "_path", "_wall0", "_cpu0")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self._name = name

    def __enter__(self) -> "_Span":
        stack = self._telemetry._span_stack()
        self._path = f"{stack[-1]}/{self._name}" if stack else self._name
        stack.append(self._path)
        self._wall0 = time.perf_counter()
        self._cpu0 = time.thread_time()
        return self

    def __exit__(self, *exc: object) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.thread_time() - self._cpu0
        stack = self._telemetry._span_stack()
        if stack and stack[-1] == self._path:
            stack.pop()
        self._telemetry._record_span(self._path, wall, cpu)
        return False


class Telemetry:
    """Thread-safe registry of spans, counters and gauges.

    A disabled instance (``enabled=False``) accepts every call as a
    near-free no-op, which is what lets the hot paths stay instrumented
    unconditionally.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._lock = threading.Lock()
        self._spans: dict[str, SpanStats] = {}
        self._counters: dict[str, int | float] = {}
        self._gauges: dict[str, float] = {}
        self._distributions: dict[str, list[float]] = {}
        self._local = threading.local()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether this registry records anything."""
        return self._enabled

    def span(self, name: str) -> _Span | _NullSpan:
        """Context manager timing one activation of span ``name``.

        Activations nested (per thread) inside another span get
        ``parent/child`` paths; repeated activations of the same path
        aggregate into one :class:`SpanStats`.
        """
        if not self._enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def count(self, name: str, value: int | float = 1) -> None:
        """Add ``value`` to counter ``name`` (atomic; creates at 0)."""
        if not self._enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last observation wins)."""
        if not self._enabled:
            return
        with self._lock:
            self._gauges[name] = float(value)

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if larger (running max)."""
        if not self._enabled:
            return
        with self._lock:
            prev = self._gauges.get(name)
            if prev is None or value > prev:
                self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Append one sample to distribution ``name``.

        The buffer is bounded at :data:`DISTRIBUTION_CAPACITY` samples
        per name (oldest dropped), so a long-lived server cannot grow
        its registry without bound.
        """
        if not self._enabled:
            return
        with self._lock:
            samples = self._distributions.setdefault(name, [])
            samples.append(float(value))
            if len(samples) > DISTRIBUTION_CAPACITY:
                del samples[0]

    def current_path(self) -> str | None:
        """The calling thread's innermost open span path (None at the root)."""
        stack = self._span_stack()
        return stack[-1] if stack else None

    @contextmanager
    def within(self, path: str | None) -> Iterator[None]:
        """Nest spans opened by this thread under ``path`` for the block.

        Lets a pool thread attribute its spans to the span that was open
        on the thread that handed it the work.
        """
        if path is None:
            yield
            return
        stack = self._span_stack()
        stack.append(path)
        try:
            yield
        finally:
            if stack and stack[-1] == path:
                stack.pop()

    def reset(self) -> None:
        """Drop every recorded span, counter, gauge and distribution."""
        with self._lock:
            self._spans.clear()
            self._counters.clear()
            self._gauges.clear()
            self._distributions.clear()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def spans(self) -> dict[str, SpanStats]:
        """Copy of the aggregated spans, keyed by path."""
        with self._lock:
            return {
                path: SpanStats(s.name, s.count, s.wall_seconds, s.cpu_seconds)
                for path, s in self._spans.items()
            }

    @property
    def counters(self) -> dict[str, int | float]:
        """Copy of the counters."""
        with self._lock:
            return dict(self._counters)

    @property
    def gauges(self) -> dict[str, float]:
        """Copy of the gauges."""
        with self._lock:
            return dict(self._gauges)

    def counter(self, name: str) -> int | float:
        """Current value of counter ``name`` (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def distribution(self, name: str) -> dict[str, float]:
        """Summary of distribution ``name`` (empty dict when unobserved)."""
        with self._lock:
            samples = list(self._distributions.get(name, ()))
        return self._summarize(samples)

    @staticmethod
    def _summarize(samples: list[float]) -> dict[str, float]:
        if not samples:
            return {}
        ordered = sorted(samples)
        return {
            "count": len(ordered),
            "mean": sum(ordered) / len(ordered),
            "p50": _percentile(ordered, 50),
            "p95": _percentile(ordered, 95),
            "p99": _percentile(ordered, 99),
            "max": ordered[-1],
        }

    def as_dict(self) -> dict[str, Any]:
        """The metrics document as a plain dict (see :data:`SCHEMA_VERSION`).

        Keys are deterministic for a deterministic run: sorted span
        paths, counter and gauge names.  Timing *values* naturally vary
        between runs; the stable key structure is what makes two
        documents diffable.
        """
        with self._lock:
            return {
                "schema": SCHEMA_VERSION,
                "spans": {
                    path: {
                        "count": s.count,
                        "wall_seconds": s.wall_seconds,
                        "cpu_seconds": s.cpu_seconds,
                    }
                    for path, s in sorted(self._spans.items())
                },
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "distributions": {
                    name: self._summarize(samples)
                    for name, samples in sorted(self._distributions.items())
                },
            }

    def to_json(self) -> str:
        """Canonical JSON rendering of :meth:`as_dict` (sorted keys)."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def write_json(self, path: str | Path) -> Path:
        """Write the canonical metrics document to ``path`` (mkdir -p)."""
        target = Path(path)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    # ------------------------------------------------------------------
    # cross-process transfer
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Raw, lossless registry state for :meth:`merge`.

        Unlike :meth:`as_dict` (which summarizes distributions), the
        snapshot carries raw samples, so a child process's registry can
        be folded into the parent's without losing percentile fidelity.
        The payload is plain JSON-able/picklable data.
        """
        with self._lock:
            return {
                "spans": {
                    path: [s.count, s.wall_seconds, s.cpu_seconds]
                    for path, s in self._spans.items()
                },
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "distributions": {
                    name: list(samples)
                    for name, samples in self._distributions.items()
                },
            }

    def merge(self, snapshot: dict[str, Any], prefix: str | None = None) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this
        registry.

        Spans and counters add; gauges merge by running max (a child's
        "last value" has no ordering against the parent's, and every
        multi-process gauge in the repo — residency peaks, pool sizes,
        utilization — is peak-semantics under merge); distribution
        samples append under the usual capacity bound.  ``prefix`` nests
        every merged span path under that parent span path.
        """
        if not self._enabled:
            return
        with self._lock:
            for path, (count, wall, cpu) in snapshot.get("spans", {}).items():
                if prefix is not None:
                    path = f"{prefix}/{path}"
                stats = self._spans.get(path)
                if stats is None:
                    stats = self._spans[path] = SpanStats(path.rsplit("/", 1)[-1])
                stats.count += count
                stats.wall_seconds += wall
                stats.cpu_seconds += cpu
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                prev = self._gauges.get(name)
                if prev is None or value > prev:
                    self._gauges[name] = float(value)
            for name, samples in snapshot.get("distributions", {}).items():
                buffer = self._distributions.setdefault(name, [])
                buffer.extend(float(v) for v in samples)
                if len(buffer) > DISTRIBUTION_CAPACITY:
                    del buffer[: len(buffer) - DISTRIBUTION_CAPACITY]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _span_stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record_span(self, path: str, wall: float, cpu: float) -> None:
        name = path.rsplit("/", 1)[-1]
        with self._lock:
            stats = self._spans.get(path)
            if stats is None:
                stats = self._spans[path] = SpanStats(name)
            stats.count += 1
            stats.wall_seconds += wall
            stats.cpu_seconds += cpu


#: The shared always-disabled instance; the registry's default.
NULL_TELEMETRY = Telemetry(enabled=False)

_active = NULL_TELEMETRY
_active_lock = threading.Lock()


def current() -> Telemetry:
    """The active registry (the no-op :data:`NULL_TELEMETRY` by default)."""
    return _active


@contextmanager
def activate(telemetry: Telemetry | None = None) -> Iterator[Telemetry]:
    """Scope ``telemetry`` (default: a fresh registry) to a ``with`` block."""
    global _active
    scoped = Telemetry() if telemetry is None else telemetry
    with _active_lock:
        previous = _active
        _active = scoped
    try:
        yield scoped
    finally:
        with _active_lock:
            _active = previous
