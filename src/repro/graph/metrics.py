"""Scalar and distributional graph metrics.

Diameter, degree statistics and clustering coefficients; the dataset
registry uses these to report the Table-I style summary rows, and the
expansion measurement uses the diameter to bound BFS depth.
"""

from __future__ import annotations

import numpy as np

from repro.chunking import sample_sources, validate_sources
from repro.errors import EmptyGraphError, GraphError
from repro.graph.core import Graph
from repro.graph.traversal import bfs_distances, bfs_level_sizes_block

__all__ = [
    "average_degree",
    "degree_histogram",
    "density",
    "eccentricity",
    "eccentricities",
    "diameter",
    "approximate_diameter",
    "local_clustering",
    "average_clustering",
    "global_clustering",
    "degree_assortativity",
]


def average_degree(graph: Graph) -> float:
    """Return the mean degree ``2 m / n``."""
    if graph.num_nodes == 0:
        raise EmptyGraphError("average degree of an empty graph is undefined")
    return 2.0 * graph.num_edges / graph.num_nodes


def degree_histogram(graph: Graph) -> np.ndarray:
    """Return counts per degree, ``hist[d] = #{v : deg(v) == d}``."""
    if graph.num_nodes == 0:
        return np.empty(0, dtype=np.int64)
    return np.bincount(graph.degrees)


def density(graph: Graph) -> float:
    """Return ``2 m / (n (n - 1))``, the fraction of present edges."""
    n = graph.num_nodes
    if n < 2:
        return 0.0
    return 2.0 * graph.num_edges / (n * (n - 1))


def eccentricity(graph: Graph, node: int) -> int:
    """Return the max hop distance from ``node`` to any reachable node."""
    dist = bfs_distances(graph, node)
    reached = dist[dist >= 0]
    return int(reached.max())


def eccentricities(
    graph: Graph,
    sources: np.ndarray | list[int] | None = None,
) -> np.ndarray:
    """Return per-source eccentricities (all nodes by default).

    Every eccentricity comes from one block-BFS level-size matrix (a
    source's eccentricity is its deepest nonempty level), agreeing
    exactly with :func:`eccentricity` per source.  An explicitly empty
    ``sources`` list is legal and returns an empty array (there is
    nothing to measure).
    """
    if graph.num_nodes == 0:
        raise EmptyGraphError("eccentricity of an empty graph is undefined")
    chosen = (
        np.arange(graph.num_nodes, dtype=np.int64)
        if sources is None
        else validate_sources(graph.num_nodes, sources)
    )
    if chosen.size == 0:
        return np.empty(0, dtype=np.int64)
    level_sizes = bfs_level_sizes_block(graph, chosen)
    # a source's eccentricity is the index of its last nonempty level
    return (level_sizes > 0).cumsum(axis=1).argmax(axis=1).astype(np.int64)


def diameter(graph: Graph) -> int:
    """Return the exact diameter of the graph's reachable pairs.

    Runs a BFS per node, batched through the block engine.  Use
    :func:`approximate_diameter` for graphs beyond a few thousand nodes.
    Disconnected pairs are ignored (the result is the max eccentricity
    over all nodes within components).
    """
    if graph.num_nodes == 0:
        raise EmptyGraphError("diameter of an empty graph is undefined")
    return int(eccentricities(graph).max())


def approximate_diameter(graph: Graph, num_sweeps: int = 4, seed: int = 0) -> int:
    """Lower-bound the diameter with repeated double sweeps.

    Each sweep BFSes from a random node, then BFSes again from the
    farthest node found; the second eccentricity lower-bounds the
    diameter and is exact on trees.  Increasing ``num_sweeps`` tightens
    the bound.
    """
    if graph.num_nodes == 0:
        raise EmptyGraphError("diameter of an empty graph is undefined")
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(num_sweeps):
        start = int(rng.integers(graph.num_nodes))
        dist = bfs_distances(graph, start)
        far = int(np.argmax(dist))
        best = max(best, eccentricity(graph, far))
    return best


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


def global_clustering(graph: Graph) -> float:
    """Return transitivity: ``3 * triangles / open-or-closed wedges``."""
    triangles = 0
    wedges = 0
    degs = graph.degrees
    wedges = int(np.sum(degs * (degs - 1) // 2))
    if wedges == 0:
        return 0.0
    for u in range(graph.num_nodes):
        nbrs_u = graph.neighbors(u)
        nbr_set = set(int(x) for x in nbrs_u if x > u)
        for v in nbrs_u:
            if v <= u:
                continue
            for w in graph.neighbors(int(v)):
                if int(w) in nbr_set and w > v:
                    triangles += 1
    return 3.0 * triangles / wedges


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
