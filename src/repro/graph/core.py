"""Core immutable graph type backed by CSR (compressed sparse row) arrays.

The :class:`Graph` class is the substrate every other subsystem builds on:
random walks (:mod:`repro.markov`), core decomposition (:mod:`repro.cores`),
expansion measurement (:mod:`repro.expansion`) and the Sybil defenses
(:mod:`repro.sybil`).  Graphs are *simple* (no self loops, no parallel
edges), *undirected* and *unweighted*, matching the graph model in
Section III-A of the paper.

Nodes are the integers ``0 .. n-1``.  The adjacency structure is stored as
two numpy arrays in CSR form:

* ``indptr`` of length ``n + 1``
* ``indices`` of length ``2 m`` (each undirected edge appears twice)

so that the neighbors of node ``v`` are
``indices[indptr[v]:indptr[v + 1]]``, sorted ascending.  This layout makes
degree lookups O(1), neighbor scans cache friendly, and lets most of the
analysis code vectorize over numpy.  To the batch engines a graph is a
one-shard store: :meth:`Graph.shard` wraps the whole CSR as one
:class:`~repro.graph.shard.Shard` row block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.errors import GraphError, NodeNotFoundError

if TYPE_CHECKING:
    from repro.graph.shard import Shard

__all__ = ["Graph"]


def _node_pairs(pairs: Iterable[tuple[int, int]], what: str) -> np.ndarray:
    """Return node-id pairs as a checked ``(k, 2)`` int64 array.

    The input may be any iterable of pairs or a ``(k, 2)`` array-like;
    an empty one of any dtype gives a ``(0, 2)`` array.  Rejects another
    shape, a non-integer dtype (``astype`` would silently truncate
    ``(0, 1.7)`` to ``(0, 1)``) and negative ids; ``what`` names the
    pairs in the shape error.
    """
    arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphError(f"{what} must have shape (k, 2), got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise GraphError(f"node ids must have an integer dtype, got {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < 0:
        raise GraphError("node ids must be non-negative")
    return arr


def _canonical_edge_array(edges: Iterable[tuple[int, int]]) -> np.ndarray:
    """Return a deduplicated ``(k, 2)`` array of canonical (u < v) edges.

    Self loops are dropped; parallel edges collapse to one.  The input may
    be any iterable of integer pairs or an ``(k, 2)`` array-like.
    """
    arr = _node_pairs(edges, "edge array")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    keep = lo != hi  # drop self loops
    lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    canon = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return canon


class Graph:
    """An immutable simple undirected graph in CSR form.

    Parameters
    ----------
    indptr, indices:
        CSR adjacency arrays.  Most callers should use
        :meth:`Graph.from_edges` instead of this constructor.

    Notes
    -----
    Instances are immutable: the underlying arrays are flagged
    non-writeable.  "Mutating" operations (in :mod:`repro.graph.ops`)
    return new graphs.
    """

    # _shard caches the row block: unset until first use and after unpickling
    __slots__ = ("_indptr", "_indices", "_num_edges", "_shard")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphError("indptr and indices must be 1-D arrays")
        if indptr.size == 0 or indptr[0] != 0 or indptr[-1] != indices.size:
            raise GraphError("malformed CSR indptr array")
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= indptr.size - 1):
            raise GraphError("indices contain out-of-range node ids")
        if indices.size % 2 != 0:
            raise GraphError(
                "an undirected simple graph must have an even number of "
                "directed half-edges"
            )
        self._indptr = indptr
        self._indices = indices
        self._num_edges = indices.size // 2
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]],
        num_nodes: int | None = None,
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` pairs.

        Self loops are silently dropped and duplicate edges collapse.  If
        ``num_nodes`` is omitted it is inferred as ``max node id + 1``.
        """
        canon = _canonical_edge_array(edges)
        inferred = int(canon.max()) + 1 if canon.size else 0
        n = inferred if num_nodes is None else int(num_nodes)
        if n < inferred:
            raise GraphError(
                f"num_nodes={n} is smaller than the largest referenced "
                f"node id {inferred - 1}"
            )
        # Mirror each canonical edge into both directions, then sort by
        # (source, target) to obtain CSR order.
        src = np.concatenate([canon[:, 0], canon[:, 1]])
        dst = np.concatenate([canon[:, 1], canon[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, dst)

    @classmethod
    def empty(cls, num_nodes: int = 0) -> "Graph":
        """Return a graph with ``num_nodes`` isolated nodes and no edges."""
        if num_nodes < 0:
            raise GraphError("num_nodes must be non-negative")
        return cls(np.zeros(num_nodes + 1, dtype=np.int64), np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._num_edges

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array of length ``n + 1`` (read-only)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index array of length ``2 m`` (read-only)."""
        return self._indices

    @property
    def degrees(self) -> np.ndarray:
        """Array of node degrees, ``degrees[v] == deg(v)``."""
        return np.diff(self._indptr)

    def degree(self, node: int) -> int:
        """Return ``deg(node)``."""
        self._check_node(node)
        return int(self._indptr[node + 1] - self._indptr[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Return the sorted neighbor array of ``node`` (read-only view)."""
        self._check_node(node)
        return self._indices[self._indptr[node] : self._indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Return True when the undirected edge ``{u, v}`` exists."""
        self._check_node(u)
        self._check_node(v)
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return bool(pos < nbrs.size and nbrs[pos] == v)

    def nodes(self) -> np.ndarray:
        """Return the array ``[0, 1, ..., n-1]``."""
        return np.arange(self.num_nodes, dtype=np.int64)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once as a ``(u, v)`` pair with u < v."""
        for u in range(self.num_nodes):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, int(v))

    def edge_array(self) -> np.ndarray:
        """Return a ``(m, 2)`` array of canonical ``u < v`` edges."""
        if self.num_edges == 0:
            return np.empty((0, 2), dtype=np.int64)
        src = np.repeat(self.nodes(), self.degrees)
        dst = self._indices
        mask = src < dst
        return np.stack([src[mask], dst[mask]], axis=1)

    # ------------------------------------------------------------------
    # row-block store surface (as on repro.graph.shard.ShardedGraph)
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of row blocks: always 1 for an in-RAM graph."""
        return 1

    def shard(self, index: int) -> Shard:
        """Return the graph's one row block, wrapping its CSR without a copy.

        Built once and cached with the operators the engines build on it;
        the cache is not part of ``==``, ``hash`` or the pickled state.
        """
        if index != 0:
            raise GraphError(f"shard index {index} out of range [0, 1)")
        if not hasattr(self, "_shard"):
            from repro.graph.shard import Shard  # shard.py imports this module

            n = self.num_nodes
            self._shard = Shard(0, 0, n, self._indptr, self._indices, n)
        return self._shard

    def iter_shards(self) -> Iterator[Shard]:
        """Yield the graph's one row block."""
        yield self.shard(0)

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple[None, dict]:
        # the default slot state, without the cached row block
        state = ("_indptr", "_indices", "_num_edges")
        return None, {name: getattr(self, name) for name in state}

    def __contains__(self, node: object) -> bool:
        return isinstance(node, (int, np.integer)) and 0 <= int(node) < self.num_nodes

    def __len__(self) -> int:
        return self.num_nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self._indptr, other._indptr) and np.array_equal(
            self._indices, other._indices
        )

    def __hash__(self) -> int:
        return hash((self.num_nodes, self.num_edges, self._indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise NodeNotFoundError(int(node), self.num_nodes)
