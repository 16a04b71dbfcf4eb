"""Closed-loop load generator for the admission service.

A locust-style harness: ``num_clients`` worker threads each issue a
deterministic stream of requests back-to-back (closed loop — a client
sends its next request only after the previous one returns), mixing
reads (rank / admission / escape / stats) with writes (edge arrivals,
edge removals, node appends) at a configurable ``write_fraction``.

Two transports share one client surface, so the same workload can be
replayed in-process (measuring the service itself) or over HTTP
(measuring the full server stack):

* :class:`InProcessClient` — direct method calls on an
  :class:`repro.serve.AdmissionService`.
* :class:`HttpClient` — ``urllib`` against a running
  :class:`repro.serve.AdmissionHTTPServer`.

Per-request latencies land in ``serve.load.<op>_seconds`` telemetry
distributions; :func:`run_load` folds them into a :class:`LoadReport`
(per-op :class:`LatencySummary` rows, aggregate p50/p99/QPS, and the
compaction pauses observed during the run).  The request stream is
seeded per client from one :class:`numpy.random.SeedSequence`, so a
given config replays the same operation sequence regardless of thread
interleaving.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import telemetry
from repro.errors import ReproError, ServeError
from repro.serve.service import AdmissionService

__all__ = [
    "LoadConfig",
    "LatencySummary",
    "LoadReport",
    "InProcessClient",
    "HttpClient",
    "run_load",
]

#: Operation mix: writes split the write fraction, reads the rest.
_WRITE_OPS = (("add_edge", 0.8), ("add_node", 0.1), ("remove_edge", 0.1))
_READ_OPS = (("rank", 0.55), ("admission", 0.25), ("stats", 0.15), ("escape", 0.05))


@dataclass(frozen=True)
class LoadConfig:
    """Closed-loop workload shape.

    ``num_requests`` is the total across all clients; each client gets
    an equal share (the remainder goes to the first clients).
    """

    num_clients: int = 4
    num_requests: int = 400
    write_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ServeError("num_clients must be positive")
        if self.num_requests < 1:
            raise ServeError("num_requests must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ServeError("write_fraction must be in [0, 1]")


@dataclass(frozen=True)
class LatencySummary:
    """Latency summary for one operation kind, in milliseconds."""

    op: str
    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one :func:`run_load` run.

    ``compaction_pauses_ms`` lists the pauses of compactions that fired
    *during* the run (write-triggered folds included), the stall a
    serving deployment actually cares about.
    """

    target: str
    transport: str
    num_clients: int
    total_requests: int
    errors: int
    duration_seconds: float
    qps: float
    p50_ms: float
    p99_ms: float
    summaries: list[LatencySummary] = field(default_factory=list)
    compaction_pauses_ms: list[float] = field(default_factory=list)
    compactions: int = 0

    def format_table(self) -> str:
        """Render the per-op latency table as aligned text."""
        lines = [
            f"{'op':<12}{'count':>8}{'mean ms':>10}{'p50 ms':>10}"
            f"{'p95 ms':>10}{'p99 ms':>10}{'max ms':>10}"
        ]
        for s in self.summaries:
            lines.append(
                f"{s.op:<12}{s.count:>8}{s.mean_ms:>10.3f}{s.p50_ms:>10.3f}"
                f"{s.p95_ms:>10.3f}{s.p99_ms:>10.3f}{s.max_ms:>10.3f}"
            )
        lines.append(
            f"total: {self.total_requests} requests, {self.errors} errors, "
            f"{self.duration_seconds:.2f}s, {self.qps:.1f} req/s, "
            f"p50 {self.p50_ms:.3f} ms, p99 {self.p99_ms:.3f} ms"
        )
        if self.compactions:
            pauses = ", ".join(f"{p:.1f}" for p in self.compaction_pauses_ms)
            lines.append(f"compactions during run: {self.compactions} (pauses ms: {pauses})")
        return "\n".join(lines)


class InProcessClient:
    """Drive an :class:`AdmissionService` by direct method calls."""

    transport = "in-process"

    def __init__(self, service: AdmissionService) -> None:
        self._service = service

    @property
    def num_nodes(self) -> int:
        return self._service.stats().num_nodes

    def rank(self, node: int) -> dict:
        return self._service.rank(node)

    def admission(self, node: int, controller: int = 0) -> dict:
        return self._service.admission(node, controller=controller)

    def escape(self) -> Any:
        return self._service.escape()

    def stats(self) -> Any:
        return self._service.stats()

    def add_edge(self, u: int, v: int) -> bool:
        return self._service.add_edge(u, v)

    def remove_edge(self, u: int, v: int) -> bool:
        return self._service.remove_edge(u, v)

    def add_node(self) -> int:
        return self._service.add_nodes(1)


class HttpClient:
    """Drive an :class:`repro.serve.AdmissionHTTPServer` over urllib.

    Raises :class:`ServeError` on HTTP 4xx, mirroring the in-process
    client's exception surface so :func:`run_load` counts errors the
    same way on both transports.
    """

    transport = "http"

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self._base = base_url.rstrip("/")
        self._timeout = timeout

    def _get(self, path: str) -> dict:
        return self._request(urllib.request.Request(self._base + path))

    def _post(self, path: str, body: dict) -> dict:
        request = urllib.request.Request(
            self._base + path,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        return self._request(request)

    def _request(self, request: urllib.request.Request) -> dict:
        try:
            with urllib.request.urlopen(request, timeout=self._timeout) as resp:
                return json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace").strip()
            raise ServeError(f"HTTP {exc.code}: {detail}") from exc

    @property
    def num_nodes(self) -> int:
        return int(self._get("/stats")["num_nodes"])

    def rank(self, node: int) -> dict:
        return self._get(f"/rank?node={int(node)}")

    def admission(self, node: int, controller: int = 0) -> dict:
        return self._get(f"/admission?node={int(node)}&controller={int(controller)}")

    def escape(self) -> dict:
        return self._get("/escape")

    def stats(self) -> dict:
        return self._get("/stats")

    def add_edge(self, u: int, v: int) -> bool:
        return bool(self._post("/edges", {"u": int(u), "v": int(v)})["changed"])

    def remove_edge(self, u: int, v: int) -> bool:
        return bool(
            self._post("/edges/remove", {"u": int(u), "v": int(v)})["changed"]
        )

    def add_node(self) -> int:
        return int(self._post("/nodes", {"count": 1})["first_id"])


def _pick_op(rng: np.random.Generator, write_fraction: float) -> str:
    if rng.random() < write_fraction:
        table = _WRITE_OPS
    else:
        table = _READ_OPS
    draw = rng.random()
    acc = 0.0
    for op, weight in table:
        acc += weight
        if draw < acc:
            return op
    return table[-1][0]


def _issue(client: Any, op: str, rng: np.random.Generator, n0: int) -> None:
    if op == "rank":
        client.rank(int(rng.integers(n0)))
    elif op == "admission":
        # a deployment runs a handful of controllers, not one per node;
        # a small pool keeps the warm reach sets meaningfully reused
        client.admission(int(rng.integers(n0)), controller=int(rng.integers(min(8, n0))))
    elif op == "escape":
        client.escape()
    elif op == "stats":
        client.stats()
    elif op == "add_edge":
        u, v = (int(x) for x in rng.integers(n0, size=2))
        if u == v:
            v = (v + 1) % n0
        client.add_edge(u, v)
    elif op == "remove_edge":
        u, v = (int(x) for x in rng.integers(n0, size=2))
        if u == v:
            v = (v + 1) % n0
        client.remove_edge(u, v)
    elif op == "add_node":
        client.add_node()
    else:  # pragma: no cover - op table is closed
        raise ServeError(f"unknown load op {op!r}")


def run_load(
    client: Any,
    config: LoadConfig | None = None,
    target: str = "graph",
    service: AdmissionService | None = None,
) -> LoadReport:
    """Run the closed-loop workload against ``client``.

    Node ids are drawn below the node count observed *before* the run,
    so reads never race ahead of node appends.  Pass the underlying
    ``service`` (for HTTP transports, the one the server wraps) to
    report compaction pauses observed during the run; the in-process
    client's service is picked up automatically.
    """
    config = config or LoadConfig()
    if service is None and isinstance(client, InProcessClient):
        service = client._service
    n0 = int(client.num_nodes)
    if n0 < 2:
        raise ServeError("load generation needs at least 2 nodes")
    compactions_before = (
        len(service.compaction_history()) if service is not None else 0
    )

    tel = telemetry.current()
    shares = [config.num_requests // config.num_clients] * config.num_clients
    for i in range(config.num_requests % config.num_clients):
        shares[i] += 1
    seeds = np.random.SeedSequence(config.seed).spawn(config.num_clients)
    barrier = threading.Barrier(config.num_clients + 1)
    samples: dict[str, list[float]] = {}
    errors = [0] * config.num_clients
    lock = threading.Lock()

    def worker(index: int) -> None:
        rng = np.random.default_rng(seeds[index])
        local: dict[str, list[float]] = {}
        failed = 0
        barrier.wait()
        for _ in range(shares[index]):
            op = _pick_op(rng, config.write_fraction)
            start = time.perf_counter()
            try:
                _issue(client, op, rng, n0)
            except ReproError:
                failed += 1
                continue
            elapsed = time.perf_counter() - start
            tel.observe(f"serve.load.{op}_seconds", elapsed)
            tel.count("serve.load.requests")
            local.setdefault(op, []).append(elapsed)
        with lock:
            errors[index] = failed
            for op, values in local.items():
                samples.setdefault(op, []).extend(values)

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(config.num_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    duration = time.perf_counter() - started

    summaries = []
    everything: list[float] = []
    for op in sorted(samples):
        ordered = sorted(samples[op])
        everything.extend(ordered)
        summaries.append(
            LatencySummary(
                op=op,
                count=len(ordered),
                mean_ms=1e3 * sum(ordered) / len(ordered),
                p50_ms=1e3 * _quantile(ordered, 50),
                p95_ms=1e3 * _quantile(ordered, 95),
                p99_ms=1e3 * _quantile(ordered, 99),
                max_ms=1e3 * ordered[-1],
            )
        )
    everything.sort()
    total = len(everything)
    pauses: list[float] = []
    if service is not None:
        pauses = [
            1e3 * stats.pause_seconds
            for stats in service.compaction_history()[compactions_before:]
        ]
    return LoadReport(
        target=target,
        transport=getattr(client, "transport", "unknown"),
        num_clients=config.num_clients,
        total_requests=total,
        errors=sum(errors),
        duration_seconds=duration,
        qps=total / duration if duration > 0 else 0.0,
        p50_ms=1e3 * _quantile(everything, 50) if everything else 0.0,
        p99_ms=1e3 * _quantile(everything, 99) if everything else 0.0,
        summaries=summaries,
        compaction_pauses_ms=pauses,
        compactions=len(pauses),
    )


def _quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list."""
    rank = max(int(np.ceil(q / 100.0 * len(ordered))) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]
