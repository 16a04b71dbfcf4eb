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
    degree = graph.degrees.copy()
    max_degree = int(degree.max()) if n else 0
    # bin_start[d] = first position of degree-d nodes in `order`
    counts = np.bincount(degree, minlength=max_degree + 1)
    bin_start = np.zeros(max_degree + 2, dtype=np.int64)
    np.cumsum(counts, out=bin_start[1:])
    next_free = bin_start[:-1].copy()
    order = np.empty(n, dtype=np.int64)  # nodes sorted by current degree
    position = np.empty(n, dtype=np.int64)  # inverse of `order`
    for v in range(n):
        slot = next_free[degree[v]]
        order[slot] = v
        position[v] = slot
        next_free[degree[v]] += 1
    bin_ptr = bin_start[:-1].copy()  # current start of each degree bucket
    coreness = np.zeros(n, dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    for i in range(n):
        v = order[i]
        coreness[v] = degree[v]
        for u in indices[indptr[v] : indptr[v + 1]]:
            if degree[u] > degree[v]:
                # swap u to the front of its bucket, then shrink the bucket
                du = degree[u]
                pos_u = position[u]
                front = bin_ptr[du]
                w = order[front]
                if u != w:
                    order[pos_u], order[front] = w, u
                    position[w], position[u] = pos_u, front
                bin_ptr[du] += 1
                degree[u] -= 1
    return coreness


def degeneracy(graph: Graph) -> int:
    """Return the graph degeneracy (the maximum coreness)."""
    coreness = core_decomposition(graph)
    if coreness.size == 0:
        raise GraphError("degeneracy of an empty graph is undefined")
    return int(coreness.max())
