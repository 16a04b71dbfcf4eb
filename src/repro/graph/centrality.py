"""Centrality measures used by the trustworthy-computing literature.

The paper's introduction lists, besides mixing time and expansion, the
other structural properties defenses are built on: (node) betweenness
for Sybil defense (Quercia & Hailes) and betweenness + similarity for
DTN routing (Daly & Haahr).  The authors' companion study measured
shortest-path betweenness quality; this module provides that measure.

Betweenness uses Brandes' accumulation algorithm, O(n m) for unweighted
graphs, with optional source sampling for the larger analogs.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.chunking import validate_sources
from repro.errors import EmptyGraphError, GraphError
from repro.graph.core import Graph

__all__ = ["betweenness_centrality"]


def _brandes_single_source(graph: Graph, source: int, dependency: np.ndarray) -> None:
    """Accumulate one source's pair dependencies into ``dependency``."""
    n = graph.num_nodes
    sigma = np.zeros(n)  # number of shortest paths
    sigma[source] = 1.0
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    order: list[int] = []
    predecessors: list[list[int]] = [[] for _ in range(n)]
    queue: deque[int] = deque([source])
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in graph.neighbors(v):
            w = int(w)
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
                predecessors[w].append(v)
    delta = np.zeros(n)
    for w in reversed(order):
        for v in predecessors[w]:
            delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
        if w != source:
            dependency[w] += delta[w]


def betweenness_centrality(
    graph: Graph,
    normalized: bool = True,
    sources: np.ndarray | list[int] | None = None,
) -> np.ndarray:
    """Return (shortest-path) betweenness centrality per node.

    With ``sources`` given (a sample the caller drew), computes the
    standard sampled estimator: dependencies from the distinct sources
    only, rescaled by ``n`` over their count.  Exact when sources is
    None.
    """
    n = graph.num_nodes
    if n == 0:
        raise EmptyGraphError("betweenness of an empty graph is undefined")
    if sources is None:
        chosen = np.arange(n, dtype=np.int64)
    else:
        chosen = np.unique(validate_sources(n, sources))
        if chosen.size == 0:
            raise GraphError("at least one source is required")
    dependency = np.zeros(n)
    for source in chosen:
        _brandes_single_source(graph, int(source), dependency)
    dependency *= n / chosen.size  # sampling rescale (no-op when exact)
    dependency /= 2.0  # undirected: each pair counted twice
    if normalized:
        scale = (n - 1) * (n - 2) / 2.0
        if scale > 0:
            dependency = dependency / scale
    return dependency
