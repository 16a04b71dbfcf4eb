"""Directed graph substrate.

Several of Table I's graphs are natively *directed* (Wiki-vote ballots,
Epinions trust statements, Slashdot friend/foe links); the paper, like
most of the Sybil-defense literature, symmetrizes them.  The authors'
follow-up work ("On the Mixing Time of Directed Social Graphs") studies
what that symmetrization hides, so this package provides the directed
substrate: a CSR digraph with both out- and in-adjacency, plus the
non-reversible chain machinery in :mod:`repro.digraph.chain`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import GraphError, NodeNotFoundError
from repro.graph.core import Graph, _node_pairs

__all__ = ["DiGraph"]


def _canonical_arcs(edges: Iterable[tuple[int, int]]) -> np.ndarray:
    arr = _node_pairs(edges, "arc array")
    keep = arr[:, 0] != arr[:, 1]  # drop self loops
    return np.unique(arr[keep], axis=0)


class DiGraph:
    """An immutable simple directed graph in dual-CSR form.

    Stores both the out-adjacency (``out_indptr``/``out_indices``) and
    in-adjacency (``in_indptr``/``in_indices``) so walks and reverse-BFS
    are both cache friendly.  At most one arc per ordered pair; no self
    loops.
    """

    __slots__ = ("_out_indptr", "_out_indices", "_in_indptr", "_in_indices")

    def __init__(
        self,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
    ) -> None:
        self._out_indptr = np.asarray(out_indptr, dtype=np.int64)
        self._out_indices = np.asarray(out_indices, dtype=np.int64)
        self._in_indptr = np.asarray(in_indptr, dtype=np.int64)
        self._in_indices = np.asarray(in_indices, dtype=np.int64)
        if self._out_indptr.size != self._in_indptr.size:
            raise GraphError("out/in indptr arrays disagree on node count")
        if self._out_indices.size != self._in_indices.size:
            raise GraphError("out/in indices arrays disagree on arc count")
        for arr in (self._out_indptr, self._out_indices, self._in_indptr, self._in_indices):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_arcs(
        cls, arcs: Iterable[tuple[int, int]], num_nodes: int | None = None
    ) -> "DiGraph":
        """Build from (source, target) pairs; duplicates and loops drop."""
        canon = _canonical_arcs(arcs)
        inferred = int(canon.max()) + 1 if canon.size else 0
        n = inferred if num_nodes is None else int(num_nodes)
        if n < inferred:
            raise GraphError(
                f"num_nodes={n} smaller than max referenced id {inferred - 1}"
            )

        def build_csr(src: np.ndarray, dst: np.ndarray):
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.add.at(indptr, src + 1, 1)
            np.cumsum(indptr, out=indptr)
            return indptr, dst

        out_indptr, out_indices = build_csr(canon[:, 0], canon[:, 1])
        in_indptr, in_indices = build_csr(canon[:, 1], canon[:, 0])
        return cls(out_indptr, out_indices, in_indptr, in_indices)

    @classmethod
    def empty(cls, num_nodes: int = 0) -> "DiGraph":
        """Return a digraph with no arcs."""
        if num_nodes < 0:
            raise GraphError("num_nodes must be non-negative")
        zeros = np.zeros(num_nodes + 1, dtype=np.int64)
        none = np.empty(0, dtype=np.int64)
        return cls(zeros, none, zeros.copy(), none.copy())

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self._out_indptr.size - 1

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs."""
        return self._out_indices.size

    @property
    def out_degrees(self) -> np.ndarray:
        """Out-degree per node."""
        return np.diff(self._out_indptr)

    @property
    def in_degrees(self) -> np.ndarray:
        """In-degree per node."""
        return np.diff(self._in_indptr)

    def out_degree(self, node: int) -> int:
        """Return the node's out-degree."""
        self._check_node(node)
        return int(self._out_indptr[node + 1] - self._out_indptr[node])

    def in_degree(self, node: int) -> int:
        """Return the node's in-degree."""
        self._check_node(node)
        return int(self._in_indptr[node + 1] - self._in_indptr[node])

    def successors(self, node: int) -> np.ndarray:
        """Return the sorted out-neighbors."""
        self._check_node(node)
        return self._out_indices[self._out_indptr[node] : self._out_indptr[node + 1]]

    def predecessors(self, node: int) -> np.ndarray:
        """Return the sorted in-neighbors."""
        self._check_node(node)
        return self._in_indices[self._in_indptr[node] : self._in_indptr[node + 1]]

    def has_arc(self, source: int, target: int) -> bool:
        """Return True when the arc ``source -> target`` exists."""
        succ = self.successors(source)
        pos = np.searchsorted(succ, target)
        return bool(pos < succ.size and succ[pos] == target)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Yield every arc as (source, target)."""
        for u in range(self.num_nodes):
            for v in self.successors(u):
                yield (u, int(v))

    def arc_array(self) -> np.ndarray:
        """Return a ``(num_arcs, 2)`` array of arcs."""
        if self.num_arcs == 0:
            return np.empty((0, 2), dtype=np.int64)
        src = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), self.out_degrees
        )
        return np.stack([src, self._out_indices], axis=1)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_undirected(self) -> Graph:
        """Return the symmetrized simple graph (what the paper measures)."""
        if self.num_arcs == 0:
            return Graph.empty(self.num_nodes)
        return Graph.from_edges(self.arc_array(), num_nodes=self.num_nodes)

    @classmethod
    def from_undirected(cls, graph: Graph) -> "DiGraph":
        """Return the digraph with both orientations of every edge."""
        edges = graph.edge_array()
        if edges.size == 0:
            return cls.empty(graph.num_nodes)
        both = np.concatenate([edges, edges[:, ::-1]])
        return cls.from_arcs(both, num_nodes=graph.num_nodes)

    def reversed(self) -> "DiGraph":
        """Return the digraph with every arc flipped."""
        return DiGraph(
            self._in_indptr.copy(),
            self._in_indices.copy(),
            self._out_indptr.copy(),
            self._out_indices.copy(),
        )

    def reciprocity(self) -> float:
        """Return the fraction of arcs whose reverse also exists.

        Social-trust digraphs differ sharply here (Epinions trust is
        ~40% reciprocal; co-authorship symmetrizations are 100%).
        """
        if self.num_arcs == 0:
            raise GraphError("reciprocity of an arcless digraph is undefined")
        reciprocal = sum(1 for u, v in self.arcs() if self.has_arc(v, u))
        return reciprocal / self.num_arcs

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            np.array_equal(self._out_indptr, other._out_indptr)
            and np.array_equal(self._out_indices, other._out_indices)
        )

    def __hash__(self) -> int:
        return hash(
            (self.num_nodes, self.num_arcs, self._out_indices.tobytes())
        )

    def __repr__(self) -> str:
        return f"DiGraph(num_nodes={self.num_nodes}, num_arcs={self.num_arcs})"

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise NodeNotFoundError(int(node), self.num_nodes)
