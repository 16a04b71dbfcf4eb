"""Community detection: label propagation and greedy modularity.

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
    "label_propagation",
    "modularity",
    "greedy_modularity",
    "partition_map",
    "normalized_mutual_information",
]


def partition_map(labels: np.ndarray) -> dict[int, np.ndarray]:
    """Group node ids by community label."""
    labels = np.asarray(labels, dtype=np.int64)
    return {
        int(label): np.flatnonzero(labels == label).astype(np.int64)
        for label in np.unique(labels)
    }


def label_propagation(graph: Graph, seed: int = 0) -> np.ndarray:
    """Return community labels by asynchronous label propagation.

    Each node repeatedly adopts its neighborhood's majority label (ties
    broken uniformly at random) until no label changes or 100 rounds
    have run.  Labels are renumbered contiguously before returning.
    """
    if graph.num_nodes == 0:
        raise GraphError("label propagation needs a non-empty graph")
    rng = np.random.default_rng(seed)
    labels = np.arange(graph.num_nodes, dtype=np.int64)
    for _ in range(100):
        changed = False
        for node in rng.permutation(graph.num_nodes):
            nbrs = graph.neighbors(int(node))
            if nbrs.size == 0:
                continue
            neighbor_labels = labels[nbrs]
            values, counts = np.unique(neighbor_labels, return_counts=True)
            best = values[counts == counts.max()]
            choice = int(best[rng.integers(best.size)])
            if choice != labels[node]:
                labels[node] = choice
                changed = True
        if not changed:
            break
    _, renumbered = np.unique(labels, return_inverse=True)
    return renumbered.astype(np.int64)


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


def normalized_mutual_information(first: np.ndarray, second: np.ndarray) -> float:
    """Return NMI between two labelings (1 = identical partitions)."""
    a = np.asarray(first, dtype=np.int64)
    b = np.asarray(second, dtype=np.int64)
    if a.size != b.size or a.size == 0:
        raise GraphError("labelings must be non-empty and equal length")
    n = a.size
    _, a_idx = np.unique(a, return_inverse=True)
    _, b_idx = np.unique(b, return_inverse=True)
    contingency = np.zeros((a_idx.max() + 1, b_idx.max() + 1))
    np.add.at(contingency, (a_idx, b_idx), 1.0)
    pa = contingency.sum(axis=1) / n
    pb = contingency.sum(axis=0) / n
    pab = contingency / n
    mutual = 0.0
    for i in range(pab.shape[0]):
        for j in range(pab.shape[1]):
            if pab[i, j] > 0:
                mutual += pab[i, j] * np.log(pab[i, j] / (pa[i] * pb[j]))
    entropy_a = -np.sum(pa[pa > 0] * np.log(pa[pa > 0]))
    entropy_b = -np.sum(pb[pb > 0] * np.log(pb[pb > 0]))
    if entropy_a == 0 or entropy_b == 0:
        return 1.0 if np.array_equal(a_idx, b_idx) else 0.0
    return float(mutual / np.sqrt(entropy_a * entropy_b))
