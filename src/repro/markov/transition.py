"""Random-walk transition matrix over a graph.

Implements the stochastic matrix P of Eq. (1) in the paper:
``p_ij = 1/deg(v_i)`` when ``v_j`` is adjacent to ``v_i`` and 0 otherwise,
with its stationary distribution ``pi = [deg(v_i) / 2m]``.  The engines
in :mod:`repro.markov.batch` step the plain walk through the graph's own
row blocks; the matrix is the chain for the lazy walk and the base of
the trust-modulated one.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph.core import Graph

__all__ = [
    "stationary_distribution",
    "transition_matrix",
    "clear_operator_cache",
]


def transition_matrix(graph: Graph, lazy: bool = False) -> sp.csr_matrix:
    """Return the n x n transition matrix P as a scipy CSR matrix.

    With ``lazy=True`` returns ``(I + P) / 2``, the lazy walk used to
    guarantee aperiodicity on bipartite structures.  Nodes of degree zero
    get a self loop (they are absorbing), so P stays row stochastic.
    """
    n = graph.num_nodes
    if n == 0:
        raise GraphError("transition matrix of an empty graph is undefined")
    degrees = graph.degrees.astype(float)
    isolated = np.flatnonzero(degrees == 0)
    inv_deg = np.zeros(n, dtype=float)
    nonzero = degrees > 0
    inv_deg[nonzero] = 1.0 / degrees[nonzero]
    data = np.repeat(inv_deg, graph.degrees)
    matrix = sp.csr_matrix(
        (data, graph.indices.copy(), graph.indptr.copy()), shape=(n, n)
    )
    if isolated.size:
        matrix = matrix + sp.csr_matrix(
            (np.ones(isolated.size), (isolated, isolated)), shape=(n, n)
        )
    if lazy:
        matrix = 0.5 * (sp.identity(n, format="csr") + matrix)
    return matrix.tocsr()


def stationary_distribution(graph: Graph) -> np.ndarray:
    """Return ``pi`` with ``pi[v] = deg(v) / 2m`` (Section III-C).

    For graphs with isolated nodes the distribution is normalized over
    positive-degree nodes only, matching the chain restricted to the
    non-absorbing part.
    """
    degrees = graph.degrees.astype(float)
    total = degrees.sum()
    if total == 0:
        raise GraphError("stationary distribution undefined for an edgeless graph")
    return degrees / total


def clear_operator_cache() -> None:
    """Do nothing: there is no operator cache to clear.

    Callers pass the chain itself (the graph for the plain walk, a
    sparse matrix otherwise), so no transition operator is cached.
    ``perfbench/workloads.py`` imports this function and calls it before
    each cold run; it goes when that call does.
    """
