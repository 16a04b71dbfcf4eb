"""Graph degeneracy: the Batagelj–Zaversnik O(m) core decomposition.

Section III-B of the paper defines the (possibly disconnected) k-core
G'_k, the coreness of a node (the largest c with the node inside a
c-core), and the relative sizes nu_k = n_k / n and tau_k = m_k / m.  The
decomposition below is the bucket-queue algorithm of Batagelj and
Zaversnik, which the paper cites as its core-computation method.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.core import Graph

__all__ = [
    "core_decomposition",
    "degeneracy",
]


def core_decomposition(graph: Graph) -> np.ndarray:
    """Return the coreness of every node in O(m) time.

    ``coreness[v]`` is the largest k such that v belongs to a subgraph
    of minimum degree k.  Implements Batagelj–Zaversnik: nodes are kept
    in an array sorted by current degree with bucket boundaries, and the
    minimum-degree node is peeled repeatedly.
    """
    n = graph.num_nodes
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # the peel runs on Python lists: indexing them is several times
    # cheaper than indexing NumPy arrays one scalar at a time
    degree = graph.degrees.tolist()
    counts = np.bincount(graph.degrees)
    # order[bin_ptr[d]:] starts with the nodes of current degree d; nodes
    # of equal degree enter in id order
    order = np.argsort(graph.degrees, kind="stable").tolist()
    position = [0] * n  # inverse of `order`
    for slot, v in enumerate(order):
        position[v] = slot
    bin_ptr = [0, *np.cumsum(counts)[:-1].tolist()]
    coreness = [0] * n
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    for i in range(n):
        v = order[i]
        dv = coreness[v] = degree[v]
        for u in indices[indptr[v] : indptr[v + 1]]:
            du = degree[u]
            if du > dv:
                # swap u to the front of its bucket, then shrink the bucket
                pos_u = position[u]
                front = bin_ptr[du]
                w = order[front]
                if u != w:
                    order[pos_u], order[front] = w, u
                    position[w], position[u] = pos_u, front
                bin_ptr[du] += 1
                degree[u] = du - 1
    return np.array(coreness, dtype=np.int64)


def degeneracy(graph: Graph) -> int:
    """Return the graph degeneracy (the maximum coreness)."""
    coreness = core_decomposition(graph)
    if coreness.size == 0:
        raise GraphError("degeneracy of an empty graph is undefined")
    return int(coreness.max())
