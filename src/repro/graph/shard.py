"""Out-of-core sharded CSR graph storage (memory-mapped node-range shards).

The in-RAM :class:`~repro.graph.core.Graph` tops out around the point
where one process can hold the full CSR plus an engine working set;
multi-million-node analogs need the adjacency on disk.  This module
stores the same canonical CSR layout split into contiguous *node-range
shards*:

* shard ``k`` owns source nodes ``[lo_k, hi_k)`` (equal-width ranges,
  the last shard possibly shorter), holding its **local** row pointer
  array (``local_indptr = indptr[lo:hi+1] - indptr[lo]``) and the
  **global** neighbor ids of those rows;
* each shard's two arrays live in ``.npy`` files opened lazily with
  ``np.load(mmap_mode="r")``, so touching a shard maps pages instead of
  reading the file;
* a JSON manifest records the shard table, per-shard digests, and the
  **graph digest** — byte-for-byte equal to
  :func:`repro.store.graph_digest` of the equivalent in-RAM graph, so
  :class:`~repro.store.ArtifactStore` keys chain through unchanged and
  sharded runs share cache entries with in-RAM runs.

:meth:`ShardedGraph.shard` serves shards through a bounded LRU
(``max_resident_shards``); loads, evictions and the resident byte total
report into :mod:`repro.telemetry` as ``shard.loads`` /
``shard.spills`` / the ``shard.resident_bytes`` gauge (with
``shard.peak_resident_bytes`` tracking the high-water mark), so a
streamed sweep's memory ceiling is observable in the same metrics
document as the engine counters.

The batch engines (:mod:`repro.markov.batch`, :mod:`repro.graph.bfs_batch`,
:mod:`repro.markov.walk_batch`, :mod:`repro.mixing.spectral`) read every
graph through :class:`Shard` row blocks — a resident
:class:`~repro.graph.core.Graph` is one block over its own CSR — so
in-RAM and sharded runs agree **bit for bit**: each operator below has
one implementation, reducing rows in the same order for any shard count.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro import telemetry
from repro.errors import GraphError
from repro.graph.core import Graph, _node_pairs

__all__ = [
    "Shard",
    "ShardedGraph",
    "DEFAULT_NODES_PER_SHARD",
]

#: Default shard width (source nodes per shard) when neither
#: ``num_shards`` nor ``nodes_per_shard`` is requested: 2**18 nodes keep
#: a shard's indptr at 2 MB and a ~10-edges/node shard's indices around
#: 20 MB — small enough to page in fast, large enough to amortize the
#: per-shard dispatch.
DEFAULT_NODES_PER_SHARD = 1 << 18

_MANIFEST_NAME = "manifest.json"
_FORMAT_VERSION = 1
#: Keys of a manifest and of each row of its shard table.
_MANIFEST_KEYS = {
    "format", "num_nodes", "num_edges", "nodes_per_shard", "bounds",
    "graph_digest", "shards",
}
_SHARD_KEYS = {"lo", "hi", "half_edges", "indptr", "indices", "digest"}

#: Matches :data:`repro.store._DIGEST_DOMAIN` — the sharded digest must
#: be byte-equal to the in-RAM one for store keys to chain.
_DIGEST_DOMAIN = b"repro-graph-digest-v1"

#: Rows buffered per shard bucket before spilling to its temp file
#: during :meth:`ShardedGraph.from_edge_blocks`.
_BUCKET_BUFFER_ROWS = 1 << 16

#: Elements hashed per block when streaming digests over mapped arrays.
_HASH_BLOCK = 1 << 20


def _hash_array_blocks(hasher, array: np.ndarray) -> None:
    """Feed ``array``'s bytes to ``hasher`` in bounded blocks.

    Equivalent to ``hasher.update(array.tobytes())`` without ever
    materializing the full byte string — the array may be a mapped
    multi-GB indices file.
    """
    for start in range(0, array.size, _HASH_BLOCK):
        hasher.update(np.ascontiguousarray(array[start : start + _HASH_BLOCK]).tobytes())


class Shard:
    """One resident node-range row block: rows ``[lo, hi)`` of the CSR.

    ``indptr`` is the *local* row pointer array (length ``hi - lo + 1``,
    ``indptr[0] == 0``); ``indices`` holds the global neighbor ids of
    the block's rows — memory maps for a :class:`ShardedGraph` shard, a
    resident :class:`~repro.graph.core.Graph`'s own arrays otherwise.
    The operators below are built lazily and cached on the block, so
    repeated engine steps pay the construction once.
    """

    __slots__ = (
        "index",
        "lo",
        "hi",
        "indptr",
        "indices",
        "_num_nodes",
        "_degrees",
        "_adjacency",
        "_transition_data",
        "_normalized",
    )

    def __init__(
        self, index: int, lo: int, hi: int, indptr: np.ndarray, indices: np.ndarray,
        num_nodes: int,
    ) -> None:
        self.index = index
        self.lo = lo
        self.hi = hi
        self.indptr = indptr
        self.indices = indices
        self._num_nodes = num_nodes
        self._degrees: np.ndarray | None = None
        self._adjacency: sp.csr_matrix | None = None
        self._transition_data: np.ndarray | None = None
        self._normalized: sp.csr_matrix | None = None

    @property
    def num_rows(self) -> int:
        """Number of source nodes owned by this shard."""
        return self.hi - self.lo

    @property
    def degrees(self) -> np.ndarray:
        """Degrees of the shard's rows (``degrees[i] == deg(lo + i)``)."""
        if self._degrees is None:
            self._degrees = np.diff(np.asarray(self.indptr))
            self._degrees.setflags(write=False)
        return self._degrees

    @property
    def nbytes(self) -> int:
        """Mapped bytes of the shard's CSR arrays."""
        return int(self.indptr.nbytes) + int(self.indices.nbytes)

    # ------------------------------------------------------------------
    # engine operators
    # ------------------------------------------------------------------
    def advance(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One uniform walk step for walks standing on this block's rows.

        Neighbor ``floor(u * deg)`` is clipped to ``deg - 1`` so a
        uniform rounding up against 1.0 cannot index past the row;
        walks on isolated nodes stay put.
        """
        local = states - self.lo if self.lo else states
        deg = self.degrees[local]
        if deg.all():
            # fast path: every walk sits on a positive-degree node (the
            # common case on connected graphs) — skip the mask round-trip
            offsets = (u * deg).astype(np.int64)
            np.minimum(offsets, deg - 1, out=offsets)
            return self.indices[self.indptr[local] + offsets]
        moving = deg > 0
        out = states.copy()
        mdeg = deg[moving]
        offsets = np.minimum((u[moving] * mdeg).astype(np.int64), mdeg - 1)
        out[moving] = self.indices[self.indptr[local[moving]] + offsets]
        return out

    def adjacency_rows(self) -> sp.csr_matrix:
        """Rows ``[lo, hi)`` of the unit-weight adjacency as float32 CSR.

        The block BFS multiplies it into rows ``[lo, hi)`` of its
        frontier product; CSR matvecs reduce rows independently, so any
        shard count gives the same bits.  float32 frontier counts stay
        exact up to degree 2**24.
        """
        if self._adjacency is None:
            self._adjacency = self._rows(np.ones(self.indices.size, dtype=np.float32))
        return self._adjacency

    def normalized_rows(self, inv_sqrt_degrees: np.ndarray) -> sp.csr_matrix:
        """Rows ``[lo, hi)`` of ``D^{-1/2} A D^{-1/2}`` as float64 CSR.

        ``inv_sqrt_degrees`` must be the full-graph vector (zeros at
        isolated nodes), exactly as :mod:`repro.mixing.spectral` builds it.
        """
        if self._normalized is None:
            data = np.repeat(inv_sqrt_degrees[self.lo : self.hi], self.degrees)
            data *= inv_sqrt_degrees[np.asarray(self.indices)]
            self._normalized = self._rows(data)
        return self._normalized

    def _rows(self, data: np.ndarray) -> sp.csr_matrix:
        """The block's rows as CSR with ``data`` as the edge weights."""
        shape = (self.num_rows, self._num_nodes)
        return sp.csr_matrix((data, self.indices, np.asarray(self.indptr)), shape=shape)

    def scatter_transition(self, block: np.ndarray, out: np.ndarray) -> None:
        """Accumulate ``P[lo:hi, :].T @ block[lo:hi]`` into ``out``.

        Reinterprets the shard's CSR rows as CSC columns ``[lo, hi)`` of
        ``P.T`` and calls the same ``csc_matvecs`` kernel scipy's
        ``P.T @ block`` dispatches to, sharing one output accumulator
        across shards.  Processing shards in ascending node order then
        reproduces the monolithic product's per-entry reduction order
        exactly — per-shard temporaries summed afterwards would not
        (float addition is non-associative), which is why this scatters
        instead of returning a partial product.

        ``block`` and ``out`` must be C-contiguous ``(n, s)`` float64
        arrays; row ``v``'s weights are ``1/deg(v)``.  Isolated rows
        contribute nothing here — the caller patches ``out[isolated] =
        block[isolated]``, which is exact because an isolated node's
        column in the merged in-RAM P holds only the unit self-loop.
        """
        if self._transition_data is None:
            deg = self.degrees[self.degrees > 0]
            self._transition_data = np.repeat(1.0 / deg, deg)
        _sparsetools.csc_matvecs(
            out.shape[0],
            self.num_rows,
            block.shape[1],
            np.asarray(self.indptr),
            np.asarray(self.indices),
            self._transition_data,
            block[self.lo : self.hi].ravel(),
            out.ravel(),
        )


class ShardedGraph:
    """A memory-mapped CSR graph split into node-range shards.

    Open an existing on-disk graph with :meth:`open`, build one from a
    resident graph with :meth:`from_graph`, or stream one from edge
    blocks that never fit in RAM with :meth:`from_edge_blocks`.  The
    engines read it through the store surface it shares with
    :class:`~repro.graph.core.Graph` (``num_nodes``, ``degrees``,
    ``num_shards``, :meth:`shard`, :meth:`iter_shards`); walks also
    look owners up with :meth:`shard_index_of`.

    ``max_resident_shards`` bounds how many shards the LRU keeps mapped
    at once (``None`` keeps all); evictions count into the
    ``shard.spills`` telemetry counter.
    """

    def __init__(
        self,
        root: str | Path,
        manifest: dict,
        max_resident_shards: int | None = None,
    ) -> None:
        if max_resident_shards is not None and max_resident_shards < 1:
            raise GraphError("max_resident_shards must be positive")
        self._root = Path(root)
        self._manifest = manifest
        self._max_resident = max_resident_shards
        self._lock = threading.Lock()
        self._cache: OrderedDict[int, Shard] = OrderedDict()
        self._degrees: np.ndarray | None = None
        _check_manifest(manifest)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls, root: str | Path, max_resident_shards: int | None = None
    ) -> "ShardedGraph":
        """Open the sharded graph stored under ``root``."""
        path = Path(root) / _MANIFEST_NAME
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise GraphError(f"no sharded graph at {root}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise GraphError(f"corrupt shard manifest at {path}: {exc}") from exc
        return cls(root, manifest, max_resident_shards=max_resident_shards)

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        root: str | Path,
        num_shards: int | None = None,
        nodes_per_shard: int | None = None,
        max_resident_shards: int | None = None,
    ) -> "ShardedGraph":
        """Shard a resident graph to disk under ``root``.

        The written graph digest is exactly
        ``repro.store.graph_digest(graph)``, so artifacts keyed on the
        in-RAM graph stay valid for the sharded copy.
        """
        n = graph.num_nodes
        width = _resolve_width(n, num_shards, nodes_per_shard)
        bounds = _bounds(n, width)
        tel = telemetry.current()
        with tel.span("shard.build"):
            tel.count("shard.build.edges", int(graph.num_edges))
            writer = _ManifestWriter(root, n, width, bounds)
            for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                local_indptr = (
                    graph.indptr[lo : hi + 1] - graph.indptr[lo]
                ).astype(np.int64)
                indices = np.asarray(
                    graph.indices[graph.indptr[lo] : graph.indptr[hi]],
                    dtype=np.int64,
                )
                writer.write_shard(k, local_indptr, indices)
            writer.finish()
        return cls.open(root, max_resident_shards=max_resident_shards)

    @classmethod
    def from_edge_blocks(
        cls,
        blocks: Iterable[np.ndarray],
        num_nodes: int,
        root: str | Path,
        num_shards: int | None = None,
        nodes_per_shard: int | None = None,
        max_resident_shards: int | None = None,
    ) -> "ShardedGraph":
        """Build a sharded graph from streamed ``(k, 2)`` edge blocks.

        Blocks are scattered into per-shard temp buckets (each
        undirected edge lands once per endpoint, mirrored), then each
        shard is sorted, deduplicated and written independently — peak
        memory is one shard's bucket, never the full edge list.  Self
        loops are dropped and duplicate edges collapse, matching
        :meth:`Graph.from_edges`; node ids must be integral (the
        same contract, enforced with the same error).
        """
        n = int(num_nodes)
        if n < 1:
            raise GraphError("a sharded graph needs at least one node")
        width = _resolve_width(n, num_shards, nodes_per_shard)
        bounds = _bounds(n, width)
        tel = telemetry.current()
        with tel.span("shard.build"):
            buckets = _EdgeBuckets(Path(root), len(bounds) - 1, width)
            try:
                for block in blocks:
                    arr = _validate_edge_block(block, n)
                    if arr.size:
                        tel.count("shard.build.edges", int(arr.shape[0]))
                        buckets.scatter(arr)
                writer = _ManifestWriter(root, n, width, bounds)
                for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                    src, dst = buckets.drain(k)
                    local_indptr, indices = _finalize_bucket(src, dst, lo, hi)
                    writer.write_shard(k, local_indptr, indices)
                writer.finish()
            finally:
                buckets.cleanup()
        return cls.open(root, max_resident_shards=max_resident_shards)

    # ------------------------------------------------------------------
    # graph surface
    # ------------------------------------------------------------------
    @property
    def root(self) -> Path:
        """The on-disk directory holding manifest and shard files."""
        return self._root

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return int(self._manifest["num_nodes"])

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return int(self._manifest["num_edges"])

    @property
    def num_shards(self) -> int:
        """Number of node-range shards."""
        return len(self._manifest["shards"])

    @property
    def bounds(self) -> list[int]:
        """Shard boundaries: shard ``k`` owns ``[bounds[k], bounds[k+1])``."""
        return list(self._manifest["bounds"])

    @property
    def nodes_per_shard(self) -> int:
        """Shard width (the last shard may be shorter)."""
        return int(self._manifest["nodes_per_shard"])

    @property
    def graph_digest(self) -> str:
        """SHA-256 of the canonical CSR bytes — equal to
        :func:`repro.store.graph_digest` of the equivalent resident
        graph, so store keys chain through unchanged."""
        return str(self._manifest["graph_digest"])

    @property
    def degrees(self) -> np.ndarray:
        """Array of node degrees (computed once by streaming shards)."""
        if self._degrees is None:
            self._degrees = np.concatenate([s.degrees for s in self.iter_shards()])
            self._degrees.setflags(write=False)
        return self._degrees

    def __repr__(self) -> str:
        return (
            f"ShardedGraph(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges}, num_shards={self.num_shards})"
        )

    # ------------------------------------------------------------------
    # shard access
    # ------------------------------------------------------------------
    def shard(self, index: int) -> Shard:
        """Return shard ``index``, mapping it (and evicting LRU) as needed."""
        if not 0 <= index < self.num_shards:
            raise GraphError(
                f"shard index {index} out of range [0, {self.num_shards})"
            )
        tel = telemetry.current()
        with self._lock:
            cached = self._cache.get(index)
            if cached is not None:
                self._cache.move_to_end(index)
                return cached
            shard = self._load_shard(index)
            self._cache[index] = shard
            tel.count("shard.loads")
            if self._max_resident is not None:
                while len(self._cache) > self._max_resident:
                    self._cache.popitem(last=False)
                    tel.count("shard.spills")
            resident = sum(s.nbytes for s in self._cache.values())
            tel.gauge("shard.resident_bytes", float(resident))
            tel.gauge_max("shard.peak_resident_bytes", float(resident))
            return shard

    def iter_shards(self) -> Iterator[Shard]:
        """Yield every shard in ascending node order."""
        for index in range(self.num_shards):
            yield self.shard(index)

    def shard_index_of(self, nodes: np.ndarray | int) -> np.ndarray | int:
        """Map node ids to their owning shard index (vectorized)."""
        if isinstance(nodes, (int, np.integer)):
            return int(nodes) // self.nodes_per_shard
        return np.asarray(nodes, dtype=np.int64) // self.nodes_per_shard

    def to_graph(self) -> Graph:
        """Materialize the full resident :class:`Graph` (small scales only)."""
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        chunks = []
        offset = 0
        for shard in self.iter_shards():
            local = np.asarray(shard.indptr)
            indptr[shard.lo + 1 : shard.hi + 1] = local[1:] + offset
            offset += int(local[-1])
            chunks.append(np.asarray(shard.indices))
        indices = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        return Graph(indptr, indices)

    def verify(self) -> bool:
        """Re-hash every shard file against its manifest digest."""
        for row, shard in zip(self._manifest["shards"], self.iter_shards()):
            hasher = hashlib.sha256()
            _hash_array_blocks(hasher, np.asarray(shard.indptr))
            _hash_array_blocks(hasher, np.asarray(shard.indices))
            if hasher.hexdigest() != row["digest"]:
                return False
        return True

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _load_shard(self, index: int) -> Shard:
        row = self._manifest["shards"][index]
        lo, hi = int(row["lo"]), int(row["hi"])
        try:
            indptr = np.load(self._root / row["indptr"], mmap_mode="r")
            indices = np.load(self._root / row["indices"], mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise GraphError(f"cannot map shard {index}: {exc}") from exc
        if indptr.shape != (hi - lo + 1,) or indptr[0] != 0:
            raise GraphError(f"shard {index} has a malformed local indptr")
        if indices.shape != (int(row["half_edges"]),):
            raise GraphError(f"shard {index} indices disagree with manifest")
        return Shard(index, lo, hi, indptr, indices, self.num_nodes)


# ----------------------------------------------------------------------
# build helpers
# ----------------------------------------------------------------------
def _resolve_width(
    n: int, num_shards: int | None, nodes_per_shard: int | None
) -> int:
    if n < 1:
        raise GraphError("a sharded graph needs at least one node")
    if num_shards is not None and nodes_per_shard is not None:
        raise GraphError("pass num_shards or nodes_per_shard, not both")
    if nodes_per_shard is not None:
        if nodes_per_shard < 1:
            raise GraphError("nodes_per_shard must be positive")
        return int(nodes_per_shard)
    if num_shards is not None:
        if num_shards < 1:
            raise GraphError("num_shards must be positive")
        return -(-n // int(num_shards))
    return min(n, DEFAULT_NODES_PER_SHARD)


def _bounds(n: int, width: int) -> list[int]:
    bounds = list(range(0, n, width))
    bounds.append(n)
    return bounds


def _check_manifest(manifest) -> None:
    """Reject a manifest whose parts disagree, before any shard is read.

    Nodes are found by ``nodes_per_shard`` and rows read by the shard
    table, so both must match ``bounds``.
    """
    try:
        version = manifest["format"]
        if version != _FORMAT_VERSION:
            raise GraphError(f"unsupported shard manifest format {version!r}")
        n, width = manifest["num_nodes"], manifest["nodes_per_shard"]
        bounds, table = manifest["bounds"], manifest["shards"]
        rows = [(r["lo"], r["hi"]) for r in table if r.keys() >= _SHARD_KEYS]
        consistent = (
            manifest.keys() >= _MANIFEST_KEYS and min(n, width) >= 1
            and bounds == _bounds(n, width) and rows == list(zip(bounds, bounds[1:]))
        )
    except (KeyError, TypeError, AttributeError):
        consistent = False
    if not consistent:
        raise GraphError(
            "malformed shard manifest: keys, bounds, nodes_per_shard and the "
            "shard table must agree"
        )


def _validate_edge_block(block: np.ndarray, num_nodes: int) -> np.ndarray:
    arr = _node_pairs(block, "edge block")
    if arr.size and arr.max() >= num_nodes:
        raise GraphError(
            f"edge block references node {int(arr.max())} outside "
            f"[0, {num_nodes})"
        )
    keep = arr[:, 0] != arr[:, 1]  # drop self loops
    return arr[keep]


class _EdgeBuckets:
    """Per-shard temp buckets for streamed half-edges.

    Each incoming edge ``(u, v)`` is mirrored and scattered so each
    direction lands in its *source* node's shard bucket.  Buckets buffer
    rows in memory and spill to ``.bucket-K.bin`` files (raw int64
    pairs) once full, so build memory stays bounded by the buffer size,
    not the edge count.
    """

    def __init__(self, root: Path, num_buckets: int, width: int) -> None:
        self._root = root
        self._root.mkdir(parents=True, exist_ok=True)
        if (self._root / _MANIFEST_NAME).exists():
            raise GraphError(f"{root} already holds a sharded graph")
        self._width = width
        self._paths = [root / f".bucket-{k:05d}.bin" for k in range(num_buckets)]
        for path in self._paths:
            path.unlink(missing_ok=True)
        self._buffers: list[list[np.ndarray]] = [[] for _ in range(num_buckets)]
        self._buffered_rows = [0] * num_buckets

    def scatter(self, edges: np.ndarray) -> None:
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        sids = src // self._width
        order = np.argsort(sids, kind="stable")
        sids = sids[order]
        rows = np.stack([src[order], dst[order]], axis=1)
        cuts = np.flatnonzero(np.diff(sids)) + 1
        for sid, part in zip(
            sids[np.concatenate([[0], cuts])] if sids.size else [],
            np.split(rows, cuts),
        ):
            k = int(sid)
            self._buffers[k].append(part)
            self._buffered_rows[k] += part.shape[0]
            if self._buffered_rows[k] >= _BUCKET_BUFFER_ROWS:
                self._flush(k)

    def drain(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (src, dst) of every buffered+spilled row of bucket ``k``."""
        self._flush(k)
        if self._paths[k].exists():
            flat = np.fromfile(self._paths[k], dtype=np.int64)
            rows = flat.reshape(-1, 2)
            self._paths[k].unlink()
        else:
            rows = np.empty((0, 2), dtype=np.int64)
        return rows[:, 0], rows[:, 1]

    def cleanup(self) -> None:
        for path in self._paths:
            path.unlink(missing_ok=True)

    def _flush(self, k: int) -> None:
        if not self._buffers[k]:
            return
        chunk = np.concatenate(self._buffers[k], axis=0)
        self._buffers[k] = []
        self._buffered_rows[k] = 0
        with open(self._paths[k], "ab") as handle:
            handle.write(np.ascontiguousarray(chunk).tobytes())


def _finalize_bucket(
    src: np.ndarray, dst: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sort, dedupe and CSR-encode one shard's half-edges."""
    if src.size:
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        keep = np.ones(src.size, dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[keep], dst[keep]
    counts = np.bincount(src - lo, minlength=hi - lo)
    local_indptr = np.zeros(hi - lo + 1, dtype=np.int64)
    np.cumsum(counts, out=local_indptr[1:])
    return local_indptr, dst.astype(np.int64, copy=False)


class _ManifestWriter:
    """Writes shard files in order, streaming the chained graph digest.

    The global digest hashes the *global* indptr bytes first (local
    indptr shifted by the running edge offset, dropping the duplicated
    leading element of every shard after the first) and then every
    shard's indices bytes — the exact byte stream
    :func:`repro.store.graph_digest` hashes for the resident graph.
    """

    def __init__(
        self, root: str | Path, num_nodes: int, width: int, bounds: list[int]
    ) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        if (self._root / _MANIFEST_NAME).exists():
            raise GraphError(f"{root} already holds a sharded graph")
        self._num_nodes = num_nodes
        self._width = width
        self._bounds = bounds
        self._rows: list[dict] = []
        self._indptr_hash = hashlib.sha256(_DIGEST_DOMAIN)
        self._edge_offset = 0
        self._indices_parts: list[Path] = []

    def write_shard(
        self, index: int, local_indptr: np.ndarray, indices: np.ndarray
    ) -> None:
        lo, hi = self._bounds[index], self._bounds[index + 1]
        indptr_name = f"shard-{index:05d}.indptr.npy"
        indices_name = f"shard-{index:05d}.indices.npy"
        np.save(self._root / indptr_name, local_indptr)
        np.save(self._root / indices_name, indices)
        global_part = local_indptr + self._edge_offset
        if index > 0:
            global_part = global_part[1:]
        _hash_array_blocks(self._indptr_hash, global_part)
        shard_hash = hashlib.sha256()
        _hash_array_blocks(shard_hash, local_indptr)
        _hash_array_blocks(shard_hash, indices)
        self._indices_parts.append(self._root / indices_name)
        self._edge_offset += int(indices.size)
        self._rows.append(
            {
                "lo": int(lo),
                "hi": int(hi),
                "half_edges": int(indices.size),
                "indptr": indptr_name,
                "indices": indices_name,
                "digest": shard_hash.hexdigest(),
            }
        )

    def finish(self) -> None:
        if self._edge_offset % 2 != 0:
            raise GraphError(
                "sharded CSR holds an odd number of half-edges; the edge "
                "stream was not symmetric"
            )
        # indices bytes hash after all indptr bytes, as in the resident
        # digest; stream them from the files just written.
        digest = self._indptr_hash
        for path in self._indices_parts:
            _hash_array_blocks(digest, np.load(path, mmap_mode="r"))
        manifest = {
            "format": _FORMAT_VERSION,
            "num_nodes": int(self._num_nodes),
            "num_edges": self._edge_offset // 2,
            "nodes_per_shard": int(self._width),
            "bounds": [int(b) for b in self._bounds],
            "graph_digest": digest.hexdigest(),
            "shards": self._rows,
        }
        (self._root / _MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
        )
