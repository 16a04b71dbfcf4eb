"""Community detection: greedy (Louvain) modularity optimization.

Viswanath et al. (cited in Section II) showed the random-walk Sybil
defenses are equivalent to detecting the local community around the
trusted node, and the paper's own explanation of slow mixing is
tight-knit community structure.  These detectors let the experiments
quantify that structure (modularity of the found partition) and replay
the Viswanath-style comparison.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.core import Graph

__all__ = [
    "modularity",
    "greedy_modularity",
]


def modularity(graph: Graph, labels: np.ndarray) -> float:
    """Return Newman modularity Q of the labeled partition."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size != graph.num_nodes:
        raise GraphError("labels must cover every node")
    m = graph.num_edges
    if m == 0:
        return 0.0
    degrees = graph.degrees.astype(float)
    internal = 0.0
    for u, v in graph.edge_array():
        if labels[u] == labels[v]:
            internal += 1.0
    community_degree: dict[int, float] = {}
    for node, label in enumerate(labels):
        community_degree[int(label)] = (
            community_degree.get(int(label), 0.0) + degrees[node]
        )
    expected = sum(d * d for d in community_degree.values()) / (4.0 * m * m)
    return internal / m - expected


def _local_moving(
    adjacency: list[dict[int, float]],
    node_weight: np.ndarray,
    two_m: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One Louvain local-moving phase on a weighted graph."""
    n = len(adjacency)
    labels = np.arange(n, dtype=np.int64)
    community_weight = node_weight.astype(float).copy()
    improved = True
    while improved:
        improved = False
        for node in rng.permutation(n):
            node = int(node)
            if not adjacency[node]:
                continue
            current = int(labels[node])
            link_weight: dict[int, float] = {}
            for nbr, w in adjacency[node].items():
                label = int(labels[nbr])
                link_weight[label] = link_weight.get(label, 0.0) + w
            community_weight[current] -= node_weight[node]
            best_label = current
            best_gain = link_weight.get(current, 0.0) - (
                community_weight[current] * node_weight[node] / two_m
            )
            for label, weight in link_weight.items():
                if label == current:
                    continue
                gain = weight - community_weight[label] * node_weight[node] / two_m
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_label = label
            community_weight[best_label] += node_weight[node]
            if best_label != current:
                labels[node] = best_label
                improved = True
    return labels


def greedy_modularity(graph: Graph, seed: int = 0) -> np.ndarray:
    """Return community labels from multi-level Louvain optimization.

    Runs local moving (each node greedily joins the neighbor community
    with the best modularity gain), then coarsens communities into
    super-nodes and repeats until modularity stops improving, for at
    most 10 levels.
    """
    if graph.num_nodes == 0:
        raise GraphError("greedy modularity needs a non-empty graph")
    m = graph.num_edges
    if m == 0:
        return np.zeros(graph.num_nodes, dtype=np.int64)
    rng = np.random.default_rng(seed)
    two_m = 2.0 * m
    # weighted working graph, initially the input
    adjacency: list[dict[int, float]] = [
        {int(v): 1.0 for v in graph.neighbors(u)} for u in range(graph.num_nodes)
    ]
    node_weight = graph.degrees.astype(float)
    assignment = np.arange(graph.num_nodes, dtype=np.int64)  # node -> community
    for _ in range(10):
        labels = _local_moving(adjacency, node_weight, two_m, rng)
        unique, compact = np.unique(labels, return_inverse=True)
        if unique.size == len(adjacency):
            break  # no merges: converged
        assignment = compact[assignment]
        # coarsen: communities become super-nodes with aggregated weights
        new_n = unique.size
        new_adj: list[dict[int, float]] = [{} for _ in range(new_n)]
        new_weight = np.zeros(new_n)
        for node, nbrs in enumerate(adjacency):
            a = int(compact[node])
            new_weight[a] += node_weight[node]
            for nbr, w in nbrs.items():
                b = int(compact[nbr])
                if a != b:  # an inner edge counts only in the weight
                    new_adj[a][b] = new_adj[a].get(b, 0.0) + w
        adjacency, node_weight = new_adj, new_weight
    _, renumbered = np.unique(assignment, return_inverse=True)
    return renumbered.astype(np.int64)
