"""Core-structure statistics for Figures 2 and 5.

Figure 2 plots the empirical CDF of node coreness.  Figure 5 plots, per
k, the relative size nu'_k of the (possibly disconnected) k-core and the
number of connected cores it splits into — the measurement behind the
"fast-mixing graphs have one big core, slow-mixing graphs fragment"
finding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.cores.decomposition import core_decomposition
from repro.errors import GraphError
from repro.graph.core import Graph

__all__ = [
    "coreness_ecdf",
    "CoreStructure",
    "core_structure",
]


def coreness_ecdf(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(core_numbers, cumulative_fraction)`` for Figure 2.

    ``cumulative_fraction[i]`` is the fraction of nodes with coreness
    <= ``core_numbers[i]``.
    """
    coreness = core_decomposition(graph)
    if coreness.size == 0:
        raise GraphError("ECDF of an empty graph is undefined")
    values, counts = np.unique(coreness, return_counts=True)
    return values, np.cumsum(counts) / coreness.size


@dataclass(frozen=True)
class CoreStructure:
    """Per-k core structure of one graph (Figure 5's data).

    Attributes
    ----------
    ks:
        Core orders ``0 .. degeneracy``.
    node_fraction:
        ``nu'_k = n_k / n``, the node-relative size of G'_k.
    edge_fraction:
        ``tau'_k = m_k / m``, the edge-relative size of G'_k.
    num_cores:
        Number of connected components of G'_k (the count of
        *connected* k-cores).
    """

    ks: np.ndarray
    node_fraction: np.ndarray
    edge_fraction: np.ndarray
    num_cores: np.ndarray

    @property
    def degeneracy(self) -> int:
        """Maximum k with a non-empty core."""
        return int(self.ks[-1])


def core_structure(graph: Graph) -> CoreStructure:
    """Measure nu'_k, tau'_k and the connected-core count for every k.

    Computes the decomposition once, then reads every k from one pass
    over the edges.  An edge lies in G'_k exactly when the smaller
    coreness of its ends is at least k, so cumulative counts of nodes by
    coreness and of half-edges by that minimum give n_k and 2 m_k.  The
    edges of G'_k over all n nodes leave the ``n - n_k`` nodes outside
    it isolated, so its connected cores are that graph's components
    less ``n - n_k``.
    """
    if graph.num_nodes == 0:
        raise GraphError("core structure of an empty graph is undefined")
    coreness = core_decomposition(graph)
    kmax = int(coreness.max())
    n = graph.num_nodes
    m = max(graph.num_edges, 1)
    ks = np.arange(kmax + 1, dtype=np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees)
    edge_core = np.minimum(coreness[src], coreness[graph.indices])
    # nodes[k] = n_k and half_edges[k] = 2 m_k: counts at coreness >= k
    nodes = np.cumsum(np.bincount(coreness, minlength=kmax + 1)[::-1])[::-1]
    half_edges = np.cumsum(np.bincount(edge_core, minlength=kmax + 1)[::-1])[::-1]
    num_cores = np.empty(kmax + 1, dtype=np.int64)
    for k in ks:
        kept = edge_core >= k
        ones = np.ones(int(half_edges[k]), dtype=np.int8)
        adjacency = sp.csr_matrix(
            (ones, (src[kept], graph.indices[kept])), shape=(n, n)
        )
        components, _ = connected_components(adjacency, directed=False)
        num_cores[k] = components - (n - nodes[k])
    return CoreStructure(
        ks=ks,
        node_fraction=nodes / n,
        edge_fraction=(half_edges // 2) / m,
        num_cores=num_cores,
    )
