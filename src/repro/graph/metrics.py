"""Scalar graph metrics: mean degree, clustering and assortativity.

:func:`repro.analysis.measurement_report` prints them in the summary
block of an audited graph.
"""

from __future__ import annotations

import numpy as np

from repro.chunking import sample_sources
from repro.errors import EmptyGraphError
from repro.graph.core import Graph

__all__ = [
    "average_degree",
    "local_clustering",
    "average_clustering",
    "degree_assortativity",
]


def average_degree(graph: Graph) -> float:
    """Return the mean degree ``2 m / n``."""
    if graph.num_nodes == 0:
        raise EmptyGraphError("average degree of an empty graph is undefined")
    return 2.0 * graph.num_edges / graph.num_nodes


def local_clustering(graph: Graph, node: int) -> float:
    """Return the local clustering coefficient of ``node``."""
    nbrs = graph.neighbors(node)
    k = nbrs.size
    if k < 2:
        return 0.0
    nbr_set = set(nbrs.tolist())
    links = 0
    for u in nbrs:
        for w in graph.neighbors(int(u)):
            if int(w) in nbr_set:
                links += 1
    # each triangle edge counted twice (once per endpoint scan)
    return links / (k * (k - 1))


def average_clustering(graph: Graph, sample: int | None = None, seed: int = 0) -> float:
    """Return the mean local clustering coefficient.

    When ``sample`` is given, average over that many uniformly sampled
    nodes instead of all of them (useful on the larger analogs).
    """
    if graph.num_nodes == 0:
        raise EmptyGraphError("clustering of an empty graph is undefined")
    if sample is None or sample >= graph.num_nodes:
        nodes = range(graph.num_nodes)
        count = graph.num_nodes
    else:
        rng = np.random.default_rng(seed)
        nodes = sample_sources(rng, graph.num_nodes, sample, "sample").tolist()
        count = sample
    return sum(local_clustering(graph, int(v)) for v in nodes) / count


def degree_assortativity(graph: Graph) -> float:
    """Return the degree assortativity coefficient (Newman's r).

    Social networks are famously assortative (hubs befriend hubs) while
    technological networks are disassortative; the paper's trust-model
    discussion makes the distinction relevant, and the synthetic analogs
    can be checked against it.  Pearson correlation of endpoint degrees
    over edges, in [-1, 1].
    """
    if graph.num_edges == 0:
        raise EmptyGraphError("assortativity needs at least one edge")
    edges = graph.edge_array()
    degrees = graph.degrees.astype(float)
    x = np.concatenate([degrees[edges[:, 0]], degrees[edges[:, 1]]])
    y = np.concatenate([degrees[edges[:, 1]], degrees[edges[:, 0]]])
    x_centered = x - x.mean()
    y_centered = y - y.mean()
    denom = np.sqrt((x_centered**2).sum() * (y_centered**2).sum())
    if denom == 0:
        return 0.0
    return float((x_centered * y_centered).sum() / denom)
