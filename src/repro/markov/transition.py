"""Random-walk transition operator over a graph.

Implements the stochastic matrix P of Eq. (1) in the paper:
``p_ij = 1/deg(v_i)`` when ``v_j`` is adjacent to ``v_i`` and 0 otherwise,
with its stationary distribution ``pi = [deg(v_i) / 2m]`` and fast
repeated application via scipy sparse matvecs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np
import scipy.sparse as sp

from repro import parallel
from repro.chunking import run_kernel
from repro.errors import GraphError
from repro.graph.core import Graph
from repro.markov.batch import (
    _evolve_kernel,
    _evolver_setup,
    batched_tvd_profile,
    delta_block,
    evolve_block,
)

__all__ = [
    "TransitionOperator",
    "stationary_distribution",
    "transition_matrix",
    "get_operator",
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


class TransitionOperator:
    """Cached transition operator supporting repeated t-step evolution.

    Builds the sparse matrix once and exposes ``evolve`` (one step) and
    ``distribution_after`` (t steps) plus the stationary distribution.
    Used heavily by the sampled mixing-time measurement, which evolves a
    delta distribution from each sampled source.
    """

    def __init__(self, graph: Graph, lazy: bool = False) -> None:
        self._graph = graph
        self._lazy = lazy
        self._matrix = transition_matrix(graph, lazy=lazy)
        self._stationary = stationary_distribution(graph)

    @property
    def graph(self) -> Graph:
        """The underlying graph."""
        return self._graph

    @property
    def lazy(self) -> bool:
        """Whether this is the lazy (I + P)/2 chain."""
        return self._lazy

    @property
    def matrix(self) -> sp.csr_matrix:
        """The sparse row-stochastic matrix P."""
        return self._matrix

    @property
    def stationary(self) -> np.ndarray:
        """The stationary distribution pi."""
        return self._stationary

    def delta(self, node: int) -> np.ndarray:
        """Return the distribution concentrated at ``node``."""
        self._graph._check_node(node)
        dist = np.zeros(self._graph.num_nodes)
        dist[node] = 1.0
        return dist

    def evolve(self, distribution: np.ndarray) -> np.ndarray:
        """Return ``distribution @ P`` (one walk step)."""
        dist = np.asarray(distribution, dtype=float)
        if dist.shape != (self._graph.num_nodes,):
            raise GraphError(
                f"distribution must have shape ({self._graph.num_nodes},)"
            )
        return self._matrix.T @ dist

    def distribution_after(self, start: np.ndarray | int, steps: int) -> np.ndarray:
        """Return the walk distribution after ``steps`` steps.

        ``start`` may be a node id (delta start) or a full distribution.
        """
        if steps < 0:
            raise GraphError("steps must be non-negative")
        dist = self.delta(start) if isinstance(start, (int, np.integer)) else np.asarray(
            start, dtype=float
        )
        for _ in range(steps):
            dist = self.evolve(dist)
        return dist

    def trajectory(self, start: np.ndarray | int, steps: int) -> np.ndarray:
        """Return a ``(steps + 1, n)`` array of distributions along the walk."""
        dist = self.delta(start) if isinstance(start, (int, np.integer)) else np.asarray(
            start, dtype=float
        )
        out = np.empty((steps + 1, self._graph.num_nodes))
        out[0] = dist
        for t in range(1, steps + 1):
            dist = self.evolve(dist)
            out[t] = dist
        return out

    # ------------------------------------------------------------------
    # batched multi-source evolution
    # ------------------------------------------------------------------
    def distribution_block(self, sources: np.ndarray | list[int]) -> np.ndarray:
        """Return an ``(n, s)`` block of delta distributions.

        Column ``j`` is ``delta(sources[j])``; the block is the input to
        :meth:`evolve_many`.
        """
        return delta_block(self._graph.num_nodes, sources)

    def evolve_many(
        self,
        block: np.ndarray,
        steps: int = 1,
    ) -> np.ndarray:
        """Advance every column of an ``(n, s)`` block by ``steps`` steps.

        Column ``j`` of the result is bit-identical to evolving column
        ``j`` alone through :meth:`evolve` ``steps`` times, but the
        whole block moves in single sparse x dense products.  When the
        ambient :func:`repro.parallel.execution` scope sets
        ``chunk_size`` or ``workers``, the block moves in chunks through
        :func:`repro.chunking.run_kernel` instead (``chunk_size`` bounds
        the dense working set at ``O(n * chunk)``).
        """
        dense = np.asarray(block, dtype=float)
        n = self._graph.num_nodes
        if dense.ndim != 2 or dense.shape[0] != n:
            raise GraphError(f"block must have shape ({n}, s), got {dense.shape}")
        _, workers, chunk_size = parallel.schedule()
        if chunk_size is None and workers is None:
            return evolve_block(self._matrix, dense, steps)
        if steps < 0:
            raise GraphError("steps must be non-negative")
        out = np.empty_like(dense)
        run_kernel(
            _evolve_kernel,
            dense.shape[1],
            inputs={"matrix": self._matrix, "block": dense, "steps": steps},
            outputs={"out": out},
            setup=_evolver_setup,
        )
        return out

    def tvd_profile(
        self,
        sources: np.ndarray | list[int],
        walk_lengths: np.ndarray | list[int],
    ) -> np.ndarray:
        """Return the ``(len(sources), len(walk_lengths))`` TVD matrix.

        The batched core of the Figure-1 sampling measurement: every
        source delta is evolved through the recorded walk lengths and
        compared against :attr:`stationary` (see
        :func:`repro.markov.batch.batched_tvd_profile`).
        """
        return batched_tvd_profile(
            self._matrix, self._stationary, sources, walk_lengths
        )


# ----------------------------------------------------------------------
# per-graph operator cache
# ----------------------------------------------------------------------
_OPERATOR_CACHE: OrderedDict[tuple[Graph, bool], TransitionOperator] = OrderedDict()
_OPERATOR_CACHE_SIZE = 8
_OPERATOR_CACHE_LOCK = threading.Lock()


def get_operator(graph: Graph, lazy: bool = False) -> TransitionOperator:
    """Return a cached :class:`TransitionOperator` for ``graph``.

    The sampling measurements, trust modulation and the ranking-style
    Sybil defenses all walk the same graphs repeatedly; this
    keyed-by-content LRU (``Graph`` hashes its CSR arrays) lets them
    share one sparse P per ``(graph, lazy)`` pair instead of rebuilding
    it.  Operators are immutable in use — callers must not modify the
    cached matrix in place.
    """
    key = (graph, lazy)
    with _OPERATOR_CACHE_LOCK:
        cached = _OPERATOR_CACHE.get(key)
        if cached is not None:
            _OPERATOR_CACHE.move_to_end(key)
            return cached
    operator = TransitionOperator(graph, lazy=lazy)
    with _OPERATOR_CACHE_LOCK:
        _OPERATOR_CACHE[key] = operator
        _OPERATOR_CACHE.move_to_end(key)
        while len(_OPERATOR_CACHE) > _OPERATOR_CACHE_SIZE:
            _OPERATOR_CACHE.popitem(last=False)
    return operator


def clear_operator_cache() -> None:
    """Drop every cached operator (frees the sparse matrices)."""
    with _OPERATOR_CACHE_LOCK:
        _OPERATOR_CACHE.clear()
