"""Content-addressed on-disk store for measurement artifacts.

Every expensive measurement in this library is a pure function of
``(graph, algorithm, parameters)``: the mixing profile of a graph at
fixed walk lengths, its SLEM, its core structure, an envelope-expansion
sweep, a GateKeeper table row.  This module caches those results on
disk under a *content-addressed* key so repeated invocations — warm
CLI runs, repeated experiment sweeps, resumed pipelines — skip the
recomputation entirely:

``key = H(graph digest | stage name | canonical params | versions)``

* The **graph digest** is a SHA-256 over the graph's canonical CSR
  bytes (``indptr`` + ``indices``); two structurally identical graphs
  produce the same digest in any process on any platform.
* The **stage name** identifies the measurement ("mixing", "spectral",
  "cores", "expansion", "gatekeeper", ...).
* **Canonical params** are the algorithm parameters serialized as
  sorted-key JSON, so dict ordering never changes the key.
* **Versions** — the codec version of :mod:`repro.analysis.persistence`
  plus a per-stage algorithm version — are folded into the key, so
  bumping either invalidates stale artifacts instead of decoding garbage.

Values are serialized through the persistence codec and written
atomically (temp file + ``os.replace``) to one object file per artifact
under ``<root>/objects/``.  That file is the artifact's only record: it
carries its own key, stage, graph digest, params and versions, and no
manifest sits beside it, so any number of instances and processes can
share one directory.  A reader sees either the complete old entry or
the complete new one, never a partial write.  A corrupt or truncated
object file is detected on read, counted, deleted and treated as a
miss, so a damaged cache degrades to recomputation rather than failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from repro import telemetry
from repro.errors import StoreError
from repro.graph.core import Graph

__all__ = [
    "ArtifactStore",
    "StoreStats",
    "canonical_params",
    "graph_digest",
    "memoize",
]

#: Domain separator folded into every graph digest; bump if the digest
#: definition itself ever changes.
_DIGEST_DOMAIN = b"repro-graph-digest-v1"

_MISS = object()


def _codec():
    """The persistence codec, imported lazily to avoid import cycles.

    (:mod:`repro.analysis.persistence` registers result types from
    modules that themselves use this store.)
    """
    from repro.analysis import persistence

    return persistence


def graph_digest(graph: Graph) -> str:
    """Return the SHA-256 hex digest of ``graph``'s canonical CSR bytes.

    The digest covers ``indptr`` and ``indices`` (both int64, so the
    byte layout is platform-stable), making it reproducible across
    processes and machines — the property the store's cross-process key
    stability rests on.
    """
    h = hashlib.sha256(_DIGEST_DOMAIN)
    h.update(graph.indptr.tobytes())
    h.update(graph.indices.tobytes())
    return h.hexdigest()


def canonical_params(params: Mapping[str, Any] | None) -> str:
    """Serialize ``params`` to canonical (sorted-key) JSON.

    Only JSON-friendly values are allowed — str, bool, int, float,
    None, and lists/tuples/dicts thereof.  Anything else raises
    :class:`StoreError` so un-keyable parameters fail loudly instead of
    silently colliding.
    """

    def check(value: Any) -> Any:
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, (list, tuple)):
            return [check(v) for v in value]
        if isinstance(value, Mapping):
            return {str(k): check(v) for k, v in value.items()}
        raise StoreError(
            f"cache params must be JSON-friendly; got {type(value).__name__}"
        )

    return json.dumps(check(dict(params or {})), sort_keys=True, separators=(",", ":"))


@dataclass
class StoreStats:
    """Hit/miss/write counters for one :class:`ArtifactStore` instance.

    Counters are updated through :meth:`increment`, which is atomic —
    the pipeline's wave scheduler shares one store across worker
    threads, and an unguarded ``+=`` on plain ints drops updates under
    that interleaving.  Every increment is also mirrored into the
    active :mod:`repro.telemetry` registry as ``store.<counter>``, so
    cache traffic lands in the same metrics document as compute spans.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def increment(self, counter: str) -> None:
        """Atomically add one to ``counter`` and mirror to telemetry."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)
        telemetry.current().count(f"store.{counter}")

    def as_line(self) -> str:
        """One-line summary, stable enough to grep in CI logs."""
        return (
            f"cache: hits={self.hits} misses={self.misses} "
            f"writes={self.writes} corrupt={self.corrupt}"
        )


class ArtifactStore:
    """Content-addressed measurement cache rooted at a directory.

    Parameters
    ----------
    root:
        Cache directory; created on first write.
    """

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root)
        self._objects = self._root / "objects"
        self._stats = StoreStats()

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    def key_for(
        self,
        subject: Graph | str,
        stage: str,
        params: Mapping[str, Any] | None = None,
        version: int = 1,
    ) -> str:
        """Return the content-addressed key for one artifact.

        ``subject`` is the measured graph, or a precomputed digest
        string for artifacts keyed before a graph exists (e.g. a
        dataset fingerprint keying the generation stage itself).
        """
        if not stage or "|" in stage:
            raise StoreError(f"invalid stage name {stage!r}")
        digest = subject if isinstance(subject, str) else graph_digest(subject)
        material = "|".join(
            [
                digest,
                stage,
                canonical_params(params),
                f"codec={_codec().CODEC_VERSION}",
                f"stage_version={int(version)}",
            ]
        )
        return hashlib.sha256(material.encode()).hexdigest()

    # ------------------------------------------------------------------
    # read / write
    # ------------------------------------------------------------------
    def get(
        self,
        subject: Graph | str,
        stage: str,
        params: Mapping[str, Any] | None = None,
        version: int = 1,
        default: Any = None,
    ) -> Any:
        """Return the stored value, or ``default`` on a miss.

        A corrupt entry (truncated write, damaged JSON, key mismatch)
        counts as a miss: it is recorded in :attr:`stats`, deleted best
        effort, and ``default`` is returned.
        """
        key = self.key_for(subject, stage, params, version=version)
        path = self._object_path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            self._stats.increment("misses")
            return default
        try:
            payload = json.loads(raw)
            if payload.get("key") != key:
                raise StoreError(f"entry {key[:12]} holds a foreign key")
            value = _codec().from_jsonable(payload["value"])
        except Exception:
            self._stats.increment("corrupt")
            self._stats.increment("misses")
            try:
                path.unlink()
            except OSError:
                pass
            return default
        self._stats.increment("hits")
        return value

    def put(
        self,
        subject: Graph | str,
        stage: str,
        params: Mapping[str, Any] | None = None,
        value: Any = None,
        version: int = 1,
    ) -> str:
        """Store ``value`` in one atomically written file; return its key."""
        key = self.key_for(subject, stage, params, version=version)
        digest = subject if isinstance(subject, str) else graph_digest(subject)
        payload = {
            "key": key,
            "stage": stage,
            "graph": digest,
            "params": canonical_params(params),
            "version": int(version),
            "codec": _codec().CODEC_VERSION,
            "value": _codec().to_jsonable(value),
        }
        path = self._object_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._atomic_write(path, json.dumps(payload))
        except OSError as exc:
            raise StoreError(f"cannot write to store {self._root}: {exc}") from exc
        self._stats.increment("writes")
        return key

    def contains(
        self,
        subject: Graph | str,
        stage: str,
        params: Mapping[str, Any] | None = None,
    ) -> bool:
        """True when a readable version-1 entry exists (does not bump
        counters)."""
        return self._object_path(self.key_for(subject, stage, params)).exists()

    def memoize(
        self,
        subject: Graph | str,
        stage: str,
        params: Mapping[str, Any] | None,
        fn: Callable[[], Any],
        version: int = 1,
    ) -> Any:
        """Return the cached value for the key, computing and storing on miss."""
        value = self.get(subject, stage, params, version=version, default=_MISS)
        if value is not _MISS:
            return value
        value = fn()
        self.put(subject, stage, params, value, version=version)
        return value

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def root(self) -> Path:
        """The cache directory."""
        return self._root

    @property
    def stats(self) -> StoreStats:
        """Counters accumulated by this instance."""
        return self._stats

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _object_path(self, key: str) -> Path:
        return self._objects / key[:2] / f"{key}.json"

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def memoize(
    store: ArtifactStore | None,
    subject: Graph | str,
    stage: str,
    params: Mapping[str, Any] | None,
    fn: Callable[[], Any],
    version: int = 1,
) -> Any:
    """Memoize ``fn`` through ``store``; with ``store=None`` just call it.

    The helper every store-aware measurement entry point uses, so the
    "no cache configured" path stays a plain function call.
    """
    if store is None:
        return fn()
    return store.memoize(subject, stage, params, fn, version=version)
