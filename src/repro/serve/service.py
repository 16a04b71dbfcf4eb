"""Warm admission serving: trust queries over snapshot + overlay.

The :class:`AdmissionService` is the query engine of :mod:`repro.serve`:
it holds one frozen CSR snapshot, a :class:`repro.serve.GraphOverlay`
absorbing the write stream, and a per-snapshot warm cache (the trust
vector, the GateKeeper instance with its distributors' reach sets, and
per-parameter query results).  The snapshot ``Graph`` keeps its own row
block and transition weights, so SybilRank needs no cached operator.
A :class:`repro.serve.CompactionPolicy` folds the overlay
into a fresh snapshot when the delta grows too large; compaction
invalidates the warm cache and rotates the snapshot digest, which
chains into :class:`repro.store.ArtifactStore` keys so cross-process
memoization stays correct across versions.

Freshness contract
------------------
* **Structural reads** (:meth:`degree`, :meth:`neighbors`,
  :meth:`has_edge`, :meth:`stats`) are *exact*: they merge the snapshot
  with the live overlay.
* **SybilRank queries** propagate trust on the last snapshot, then
  degree-normalize with the *live* overlay degrees (the overlay-aware
  degree correction) — with a clean overlay this is bit-identical to
  :class:`repro.sybil.SybilRank` on the snapshot.  Nodes appended
  since the snapshot score 0 until the next compaction.
* **GateKeeper and escape queries** are served entirely from the last
  snapshot; appended nodes are unadmitted and unlabeled until folded.
* Staleness (write events since the last snapshot) is bounded by the
  compaction policy and reported in :meth:`stats` and the
  ``serve.staleness`` gauge; :meth:`compact` forces read-your-writes.

Telemetry: every query/write lands in ``serve.*`` spans and counters
(queries by kind, cache hits/misses, writes, compactions, overlay size,
staleness) on the active :mod:`repro.telemetry` registry.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import telemetry
from repro.errors import ServeError
from repro.graph.core import Graph
from repro.pipeline import _WALK_VERSION
from repro.serve.overlay import CompactionPolicy, GraphOverlay
from repro.store import ArtifactStore, graph_digest, memoize
from repro.sybil.escape import EscapeMeasurement, _check_lengths, escape_profile
from repro.sybil.gatekeeper import GateKeeper, GateKeeperConfig
from repro.sybil.ranking import accept_top
from repro.sybil.sybilrank import SybilRank

__all__ = [
    "ServiceConfig",
    "CompactionStats",
    "ServiceStats",
    "AdmissionService",
]


#: GateKeeper distributors per snapshot, deliberately fewer than the
#: GateKeeper paper default: a serving path warms one reach set per
#: distributor.
NUM_DISTRIBUTORS = 25

#: Walk lengths of an escape query that names none.
_ESCAPE_LENGTHS = (2, 5, 10, 20)

#: Most walk lengths, and most steps per walk, one escape query may ask
#: for.  Walks that are never absorbed run the full length, so the
#: query's time is linear in its longest length.
_MAX_ESCAPE_LENGTHS = 16
_MAX_ESCAPE_STEPS = 1024


@dataclass(frozen=True)
class ServiceConfig:
    """Query-engine parameters for one :class:`AdmissionService`.

    SybilRank seeds the ``num_seeds`` highest-degree nodes of the
    initial graph (restricted to the honest prefix when labels are
    present) and propagates for its default ``ceil(log2 n)`` rounds.
    """

    num_seeds: int = 5
    admission_factor: float = 0.2
    escape_walks: int = 400
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_seeds < 1:
            raise ServeError("num_seeds must be positive")
        if not 0.0 < self.admission_factor <= 1.0:
            raise ServeError("admission_factor must be in (0, 1]")
        if self.escape_walks < 1:
            raise ServeError("escape_walks must be positive")


@dataclass(frozen=True)
class CompactionStats:
    """One compaction event: the pause and what was folded."""

    version: int
    pause_seconds: float
    folded_added: int
    folded_removed: int
    folded_new_nodes: int
    num_nodes: int
    num_edges: int
    digest: str


@dataclass(frozen=True)
class ServiceStats:
    """A point-in-time snapshot of the serving state."""

    snapshot_version: int
    snapshot_digest: str
    num_nodes: int
    num_edges: int
    snapshot_nodes: int
    snapshot_edges: int
    overlay_edges: int
    overlay_new_nodes: int
    staleness: int
    queries: int
    writes: int
    compactions: int
    cache_hits: int
    cache_misses: int


class AdmissionService:
    """Long-lived trust-query serving over an evolving graph.

    Parameters
    ----------
    graph:
        The initial snapshot.
    num_honest:
        Optional label boundary: nodes ``0 .. num_honest - 1`` are
        honest, the rest Sybil.  Required for :meth:`escape` queries;
        also restricts the default trust seeds to the honest prefix.
    config:
        Query parameters (:class:`ServiceConfig`).
    policy:
        When to compact (:class:`repro.serve.CompactionPolicy`).
    store:
        Optional :class:`repro.store.ArtifactStore`; query results are
        memoized under the current snapshot digest, so a restarted
        service on the same logical graph serves warm.

    All methods are thread-safe: writes mutate the overlay under a
    lock, queries grab a consistent (snapshot, cache, degrees) view
    and compute outside it.
    """

    def __init__(
        self,
        graph: Graph,
        num_honest: int | None = None,
        config: ServiceConfig | None = None,
        policy: CompactionPolicy | None = None,
        store: ArtifactStore | None = None,
    ) -> None:
        if graph.num_nodes < 3:
            raise ServeError("the admission service needs at least 3 nodes")
        if num_honest is not None and not 0 < num_honest <= graph.num_nodes:
            raise ServeError("num_honest must be in 1..num_nodes")
        self._config = config or ServiceConfig()
        self._policy = policy or CompactionPolicy()
        self._store = store
        self._num_honest = num_honest
        self._lock = threading.RLock()
        self._version = 0
        self._staleness = 0
        self._queries = 0
        self._writes = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._compactions: list[CompactionStats] = []
        self._install_snapshot(graph)
        self._seeds = self._resolve_seeds(graph)

    # ------------------------------------------------------------------
    # configuration / state
    # ------------------------------------------------------------------
    @property
    def config(self) -> ServiceConfig:
        """The active query configuration."""
        return self._config

    @property
    def policy(self) -> CompactionPolicy:
        """The active compaction policy."""
        return self._policy

    @property
    def num_honest(self) -> int | None:
        """The honest-prefix label boundary, when labels are present."""
        return self._num_honest

    @property
    def trust_seeds(self) -> tuple[int, ...]:
        """The SybilRank seed set (fixed at construction)."""
        return self._seeds

    @property
    def snapshot(self) -> Graph:
        """The current frozen snapshot."""
        with self._lock:
            return self._snapshot

    @property
    def snapshot_digest(self) -> str:
        """The store digest of the current snapshot."""
        with self._lock:
            return self._digest

    def stats(self) -> ServiceStats:
        """Exact point-in-time serving statistics."""
        with self._lock:
            return ServiceStats(
                snapshot_version=self._version,
                snapshot_digest=self._digest,
                num_nodes=self._overlay.num_nodes,
                num_edges=self._overlay.num_edges,
                snapshot_nodes=self._snapshot.num_nodes,
                snapshot_edges=self._snapshot.num_edges,
                overlay_edges=self._overlay.delta_edges,
                overlay_new_nodes=self._overlay.num_new_nodes,
                staleness=self._staleness,
                queries=self._queries,
                writes=self._writes,
                compactions=len(self._compactions),
                cache_hits=self._cache_hits,
                cache_misses=self._cache_misses,
            )

    def compaction_history(self) -> list[CompactionStats]:
        """Every compaction so far, oldest first."""
        with self._lock:
            return list(self._compactions)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Record an edge arrival; False when already present."""
        with self._lock:
            return self._after_write(self._overlay.add_edge(u, v))

    def remove_edge(self, u: int, v: int) -> bool:
        """Record an edge departure; False when absent."""
        with self._lock:
            return self._after_write(self._overlay.remove_edge(u, v))

    def add_nodes(self, count: int = 1) -> int:
        """Append ``count`` nodes; returns the first new id.

        ``count`` must lie in ``1..policy.max_new_nodes``, the most
        pending nodes a compaction is allowed to fold, so no single
        request sizes the next snapshot.
        """
        limit = self._policy.max_new_nodes
        if not 1 <= count <= limit:
            raise ServeError(f"count must be in 1..{limit}, got {count}")
        with self._lock:
            first = self._overlay.add_nodes(count)
            self._after_write(True, events=count)
            return first

    def apply_delta(self, delta) -> int:
        """Apply a :class:`repro.dynamics.GraphDelta` write batch."""
        with self._lock:
            changed = self._overlay.apply_delta(delta)
            self._after_write(changed > 0, events=changed)
            return changed

    def compact(self) -> CompactionStats | None:
        """Fold the overlay now; None when it was already clean."""
        with self._lock:
            return self._compact_locked()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def rank_scores(self) -> np.ndarray:
        """Degree-normalized SybilRank trust for every logical node.

        Trust propagates on the last snapshot (cached per snapshot and
        memoized in the store under the snapshot digest); normalization
        divides by the *live* overlay degrees — the freshness
        contract's degree correction.
        """
        snapshot, digest, warm, degrees, _ = self._query_state("rank")
        tel = telemetry.current()
        with tel.span("serve.query.rank"):
            trust = self._warm_get(
                warm,
                ("trust", self._seeds),
                lambda: self._compute_trust(snapshot, digest),
            )
            padded = np.zeros(degrees.size)
            padded[: trust.size] = trust
            return np.divide(
                padded, degrees, out=np.zeros(degrees.size), where=degrees > 0
            )

    def rank(self, node: int) -> dict[str, Any]:
        """SybilRank score for one node, plus its in-graph percentile."""
        scores = self.rank_scores()
        if not 0 <= int(node) < scores.size:
            raise ServeError(f"node {int(node)} is out of range")
        score = float(scores[int(node)])
        with self._lock:
            version, staleness, fresh = (
                self._version,
                self._staleness,
                int(node) < self._snapshot.num_nodes,
            )
        return {
            "node": int(node),
            "score": score,
            "percentile": float(np.count_nonzero(scores <= score) / scores.size),
            "fresh": fresh,
            "snapshot_version": version,
            "staleness": staleness,
        }

    def admission(self, node: int, controller: int = 0) -> dict[str, Any]:
        """GateKeeper ticket admission of ``node`` by ``controller``.

        Served from the last snapshot: the per-controller result is
        cached per snapshot and memoized in the store, and on a miss the
        per-snapshot GateKeeper instance, which keeps its distributors'
        reach sets warm across controllers, runs it.
        """
        snapshot, digest, warm, _, n_logical = self._query_state("admission")
        if not 0 <= int(node) < n_logical:
            raise ServeError(f"node {int(node)} is out of range")
        if not 0 <= int(controller) < snapshot.num_nodes:
            raise ServeError(
                f"controller {int(controller)} is not in the current snapshot"
            )
        tel = telemetry.current()

        def build():
            gatekeeper = self._warm_get(
                warm,
                "gatekeeper",
                lambda: GateKeeper(
                    snapshot,
                    GateKeeperConfig(
                        num_distributors=NUM_DISTRIBUTORS,
                        admission_factor=self._config.admission_factor,
                        seed=self._config.seed,
                    ),
                ),
            )
            return memoize(
                self._store,
                digest,
                "serve.admission",
                {
                    "controller": int(controller),
                    "num_distributors": NUM_DISTRIBUTORS,
                    "admission_factor": self._config.admission_factor,
                    "seed": self._config.seed,
                },
                lambda: gatekeeper.run(int(controller)),
                version=_WALK_VERSION,
            )

        with tel.span("serve.query.admission"):
            result = self._warm_get(warm, ("admission", int(controller)), build)
        fresh = int(node) < snapshot.num_nodes
        if fresh:
            pos = int(np.searchsorted(result.admitted, int(node)))
            admitted = bool(
                pos < result.admitted.size and result.admitted[pos] == int(node)
            )
            reach = int(result.reach_counts[int(node)])
        else:
            admitted, reach = False, 0
        needed = max(
            1,
            int(
                np.ceil(
                    self._config.admission_factor * result.distributors.size
                )
            ),
        )
        return {
            "node": int(node),
            "controller": int(controller),
            "admitted": admitted,
            "reach": reach,
            "needed": needed,
            "fresh": fresh,
        }

    def escape(
        self,
        walk_lengths: tuple[int, ...] | None = None,
        num_walks: int | None = None,
    ) -> EscapeMeasurement:
        """Escape probabilities on the last snapshot (labels required).

        Honest nodes are the ``num_honest`` prefix; nodes appended
        since the snapshot do not participate until compaction.  The
        measurement is cached per snapshot and memoized in the store
        under its walk parameters only: execution scheduling (the
        ambient executor and worker count) never changes the result,
        so it never splits the cache.  A query names at most
        :data:`_MAX_ESCAPE_LENGTHS` lengths, each at most
        :data:`_MAX_ESCAPE_STEPS` (else :class:`ServeError`), strictly
        increasing and each at least 1 (else
        :class:`~repro.errors.SybilDefenseError`); a query that breaks
        a rule is rejected before any walk runs or any counter moves.
        """
        if self._num_honest is None:
            raise ServeError(
                "escape queries need num_honest labels; construct the "
                "service with num_honest set"
            )
        lengths = tuple(
            int(w) for w in (_ESCAPE_LENGTHS if walk_lengths is None else walk_lengths)
        )
        if len(lengths) > _MAX_ESCAPE_LENGTHS:
            raise ServeError(
                f"at most {_MAX_ESCAPE_LENGTHS} walk lengths per escape query, "
                f"got {len(lengths)}"
            )
        if max(lengths, default=0) > _MAX_ESCAPE_STEPS:
            raise ServeError(
                f"escape walk lengths must be at most {_MAX_ESCAPE_STEPS}, "
                f"got {max(lengths)}"
            )
        _check_lengths(list(lengths))
        walks = int(num_walks or self._config.escape_walks)
        snapshot, digest, warm, _, _ = self._query_state("escape")
        tel = telemetry.current()
        with tel.span("serve.query.escape"):
            return self._warm_get(
                warm,
                ("escape", lengths, walks),
                lambda: memoize(
                    self._store,
                    digest,
                    "serve.escape",
                    {
                        "lengths": list(lengths),
                        "num_walks": walks,
                        "num_honest": self._num_honest,
                        "seed": self._config.seed,
                    },
                    lambda: escape_profile(
                        snapshot,
                        self._num_honest,
                        list(lengths),
                        num_walks=walks,
                        seed=self._config.seed,
                    ),
                    version=_WALK_VERSION,
                ),
            )

    # structural reads — exact, O(delta) merged
    def degree(self, node: int) -> int:
        """Exact logical degree (snapshot + overlay)."""
        with self._lock:
            return self._overlay.degree(node)

    def neighbors(self, node: int) -> np.ndarray:
        """Exact logical neighbor array (snapshot + overlay)."""
        with self._lock:
            return np.array(self._overlay.neighbors(node))

    def has_edge(self, u: int, v: int) -> bool:
        """Exact logical edge membership (snapshot + overlay)."""
        with self._lock:
            return self._overlay.has_edge(u, v)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _resolve_seeds(self, graph: Graph) -> tuple[int, ...]:
        limit = self._num_honest or graph.num_nodes
        count = min(self._config.num_seeds, limit)
        return tuple(int(i) for i in accept_top(graph.degrees[:limit], count))

    def _install_snapshot(self, graph: Graph) -> None:
        # lock held (or constructor)
        self._snapshot = graph
        self._digest = graph_digest(graph)
        self._overlay = GraphOverlay(graph)
        self._warm: dict[Any, Any] = {}
        tel = telemetry.current()
        tel.gauge("serve.snapshot.nodes", graph.num_nodes)
        tel.gauge("serve.snapshot.edges", graph.num_edges)
        tel.gauge("serve.overlay.edges", 0)

    def _after_write(self, changed: bool, events: int = 1) -> bool:
        # lock held
        tel = telemetry.current()
        tel.count("serve.writes")
        if changed:
            self._writes += 1
            self._staleness += events
            tel.count("serve.writes.applied")
            tel.gauge("serve.overlay.edges", self._overlay.delta_edges)
            tel.gauge("serve.staleness", self._staleness)
            if self._policy.should_compact(self._overlay):
                self._compact_locked()
        return changed

    def _compact_locked(self) -> CompactionStats | None:
        overlay = self._overlay
        if overlay.is_clean:
            return None
        tel = telemetry.current()
        with tel.span("serve.compaction"):
            start = time.perf_counter()
            folded_added = len(overlay._added)
            folded_removed = len(overlay._removed)
            folded_new = overlay.num_new_nodes
            self._install_snapshot(overlay.materialize())
            pause = time.perf_counter() - start
        self._version += 1
        self._staleness = 0
        stats = CompactionStats(
            version=self._version,
            pause_seconds=pause,
            folded_added=folded_added,
            folded_removed=folded_removed,
            folded_new_nodes=folded_new,
            num_nodes=self._snapshot.num_nodes,
            num_edges=self._snapshot.num_edges,
            digest=self._digest,
        )
        self._compactions.append(stats)
        tel.count("serve.compactions")
        tel.gauge("serve.staleness", 0)
        tel.observe("serve.compaction.pause_seconds", pause)
        return stats

    def _query_state(self, kind: str):
        """Grab a consistent (snapshot, digest, warm, degrees, n) view."""
        tel = telemetry.current()
        with self._lock:
            self._queries += 1
            state = (
                self._snapshot,
                self._digest,
                self._warm,
                self._overlay.degrees,
                self._overlay.num_nodes,
            )
        tel.count("serve.queries")
        tel.count(f"serve.queries.{kind}")
        return state

    def _warm_get(self, warm: dict, key: Any, build: Callable[[], Any]) -> Any:
        tel = telemetry.current()
        with self._lock:
            value = warm.get(key)
        if value is not None:
            self._bump_cache(hit=True)
            return value
        self._bump_cache(hit=False)
        value = build()
        with self._lock:
            warm.setdefault(key, value)
        return value

    def _bump_cache(self, hit: bool) -> None:
        tel = telemetry.current()
        with self._lock:
            if hit:
                self._cache_hits += 1
            else:
                self._cache_misses += 1
        tel.count("serve.cache.hits" if hit else "serve.cache.misses")

    def _compute_trust(self, snapshot: Graph, digest: str) -> np.ndarray:
        return memoize(
            self._store,
            digest,
            "serve.trust",
            # None (SybilRank's default round count) stays in the key
            {
                "seeds": list(self._seeds),
                "iterations": None,
                "seed": self._config.seed,
            },
            lambda: SybilRank(snapshot)
            .run(np.asarray(self._seeds, dtype=np.int64))
            .trust,
        )
