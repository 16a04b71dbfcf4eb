"""Online admission serving: incremental overlays + warm query serving.

The paper's trust machinery (SybilRank scores, GateKeeper admission,
escape probabilities) is built on frozen CSR snapshots, but a deployed
admission controller faces a *live* graph: edges arrive while queries
are in flight.  This package closes that gap in three layers:

* :mod:`repro.serve.overlay` — :class:`GraphOverlay`, an O(delta)
  mutable delta (added/removed nodes and edges) over an immutable
  :class:`repro.graph.Graph`, plus the :class:`CompactionPolicy` that
  decides when to fold it into a fresh snapshot.
* :mod:`repro.serve.service` — :class:`AdmissionService`, the
  thread-safe query engine: per-snapshot warm caches (GateKeeper
  reach sets, trust vectors, query results), store memoization
  chained on the snapshot digest, a documented freshness contract, and
  full ``serve.*`` telemetry.
* :mod:`repro.serve.server` / :mod:`repro.serve.loadgen` — a stdlib
  ``ThreadingHTTPServer`` JSON API and a closed-loop load generator
  reporting p50/p99 latency, QPS and compaction pauses.

The CLI front-end is ``python -m repro serve``.
"""

from repro.serve.loadgen import (
    HttpClient,
    InProcessClient,
    LatencySummary,
    LoadConfig,
    LoadReport,
    run_load,
)
from repro.serve.overlay import CompactionPolicy, GraphOverlay
from repro.serve.server import AdmissionHTTPServer, create_server
from repro.serve.service import (
    AdmissionService,
    CompactionStats,
    ServiceConfig,
    ServiceStats,
)

__all__ = [
    "GraphOverlay",
    "CompactionPolicy",
    "AdmissionService",
    "ServiceConfig",
    "ServiceStats",
    "CompactionStats",
    "AdmissionHTTPServer",
    "create_server",
    "LoadConfig",
    "LatencySummary",
    "LoadReport",
    "InProcessClient",
    "HttpClient",
    "run_load",
]
