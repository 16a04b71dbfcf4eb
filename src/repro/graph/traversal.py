"""Breadth-first traversal and connectivity primitives.

These routines are the workhorses behind the expansion measurement
(Section III-D builds a BFS tree from every node) and the connected-core
counting in Section V, so they are written against the CSR arrays directly
and keep their inner loops in numpy.
"""

from __future__ import annotations

import numpy as np

from repro.graph.bfs_batch import bfs_distances_block, bfs_level_sizes_block
from repro.graph.core import Graph

__all__ = [
    "bfs_distances",
    "bfs_levels",
    "bfs_distances_block",
    "bfs_level_sizes_block",
    "connected_components",
    "num_connected_components",
    "largest_component_nodes",
]

_UNREACHED = -1


def _gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """Concatenate the frontier's neighbor lists (with duplicates).

    Small frontiers use per-node slicing; large ones (social graphs
    explode to thousands of nodes per level) build a flat index range,
    which keeps the whole gather inside numpy.
    """
    if frontier.size <= 64:
        blocks = [indices[indptr[v] : indptr[v + 1]] for v in frontier]
        return np.concatenate(blocks) if blocks else frontier[:0]
    starts = indptr[frontier]
    lengths = indptr[frontier + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return frontier[:0]
    offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    flat = np.arange(total, dtype=np.int64) - offsets
    return indices[np.repeat(starts, lengths) + flat]


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Return shortest-path hop distances from ``source`` to every node.

    Unreachable nodes get distance ``-1``.  Runs a frontier-at-a-time BFS
    whose per-level work is fully vectorized over the CSR arrays.
    """
    graph._check_node(source)
    n = graph.num_nodes
    dist = np.full(n, _UNREACHED, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    level = 0
    while frontier.size:
        level += 1
        candidates = _gather_neighbors(indptr, indices, frontier)
        if candidates.size == 0:
            break
        fresh = candidates[dist[candidates] == _UNREACHED]
        if fresh.size == 0:
            break
        fresh = np.unique(fresh)
        dist[fresh] = level
        frontier = fresh
    return dist


def bfs_levels(graph: Graph, source: int) -> list[np.ndarray]:
    """Return BFS levels from ``source`` as a list of node arrays.

    ``levels[i]`` holds the nodes at hop distance exactly ``i``;
    ``levels[0]`` is ``[source]``.  This is the tree construction used by
    the envelope-expansion measurement (Eq. 4 in the paper).
    """
    dist = bfs_distances(graph, source)
    reached = dist >= 0
    if not reached.any():
        return [np.array([source], dtype=np.int64)]
    eccentricity = int(dist[reached].max())
    nodes = np.arange(graph.num_nodes, dtype=np.int64)
    return [nodes[dist == i] for i in range(eccentricity + 1)]


def connected_components(graph: Graph) -> np.ndarray:
    """Label each node with its connected-component id (0-based).

    Components are numbered in order of their smallest node id.
    """
    n = graph.num_nodes
    labels = np.full(n, _UNREACHED, dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    current = 0
    for start in range(n):
        if labels[start] != _UNREACHED:
            continue
        labels[start] = current
        frontier = np.array([start], dtype=np.int64)
        while frontier.size:
            candidates = _gather_neighbors(indptr, indices, frontier)
            fresh = candidates[labels[candidates] == _UNREACHED]
            if fresh.size == 0:
                break
            fresh = np.unique(fresh)
            labels[fresh] = current
            frontier = fresh
        current += 1
    return labels


def num_connected_components(graph: Graph) -> int:
    """Return the number of connected components (isolated nodes count)."""
    labels = connected_components(graph)
    return int(labels.max()) + 1 if labels.size else 0


def largest_component_nodes(graph: Graph) -> np.ndarray:
    """Return the sorted node ids of the largest connected component."""
    labels = connected_components(graph)
    if labels.size == 0:
        return np.empty(0, dtype=np.int64)
    sizes = np.bincount(labels)
    biggest = int(np.argmax(sizes))
    return np.flatnonzero(labels == biggest).astype(np.int64)
