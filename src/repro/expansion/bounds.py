"""Cut quality: conductance and the Fiedler-vector sweep cut.

The unrestricted vertex expansion of Eq. (3) minimizes over
exponentially many sets, so only the envelope restriction
(:mod:`repro.expansion.envelope`) is measured.  This module finds the
graph's bottleneck instead: the best-conductance prefix of the Fiedler
vector's degree-scaled order, which the mixing-time literature ties to
the spectral gap via Cheeger's inequality.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.core import Graph
from repro.mixing.spectral import normalized_adjacency

__all__ = [
    "conductance",
    "fiedler_vector",
    "sweep_cut_expansion",
]


def conductance(graph: Graph, nodes: np.ndarray | list[int]) -> float:
    """Return ``phi(S) = cut(S, S̄) / min(vol(S), vol(S̄))``."""
    arr = np.asarray(list(nodes), dtype=np.int64)
    if arr.size == 0 or arr.size >= graph.num_nodes:
        raise GraphError("conductance needs a proper non-empty subset")
    members = np.zeros(graph.num_nodes, dtype=bool)
    members[arr] = True
    indptr, indices = graph.indptr, graph.indices
    cut = 0
    for v in arr:
        nbrs = indices[indptr[v] : indptr[v + 1]]
        cut += int(np.count_nonzero(~members[nbrs]))
    volume_s = int(graph.degrees[arr].sum())
    volume_rest = 2 * graph.num_edges - volume_s
    denom = min(volume_s, volume_rest)
    if denom == 0:
        return float("inf")
    return cut / denom


def fiedler_vector(graph: Graph) -> np.ndarray:
    """Return the eigenvector for the second largest eigenvalue of the
    normalized adjacency (equivalently the normalized Laplacian's
    Fiedler vector), computed densely.

    Intended for graphs up to a few thousand nodes; sweep cuts of this
    vector expose the best conductance bottleneck, which is how the
    slow-mixing community structure is localized.
    """
    matrix = normalized_adjacency(graph).toarray()
    values, vectors = np.linalg.eigh(matrix)
    # eigh sorts ascending; the largest is the trivial eigenvalue ~1
    return vectors[:, -2]


def sweep_cut_expansion(graph: Graph) -> tuple[np.ndarray, float]:
    """Return the best sweep-cut set of the Fiedler vector + its conductance."""
    vector = fiedler_vector(graph)
    degrees = graph.degrees.astype(float)
    scores = np.zeros_like(vector)
    nonzero = degrees > 0
    scores[nonzero] = vector[nonzero] / np.sqrt(degrees[nonzero])
    order = np.argsort(scores)[::-1]
    best_set: np.ndarray | None = None
    best_phi = float("inf")
    for prefix in range(1, graph.num_nodes):
        candidate = order[:prefix]
        phi = conductance(graph, candidate)
        if phi < best_phi:
            best_phi = phi
            best_set = candidate.copy()
    if best_set is None:
        raise GraphError("graph too small for a sweep cut")
    return np.sort(best_set), best_phi
