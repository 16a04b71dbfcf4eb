"""Monte-Carlo random walks on graphs.

The Sybil defenses in :mod:`repro.sybil` are built on sampled walks and
random *routes* (SybilGuard's permutation-based deterministic walks);
this module provides both, plus empirical visit distributions for
cross-checking the algebraic evolution in
:class:`~repro.markov.transition.TransitionOperator`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.core import Graph

__all__ = [
    "random_walk",
    "random_walks",
    "empirical_distribution",
    "RouteTable",
]


def random_walk(
    graph: Graph,
    source: int,
    length: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Return a walk as an array of ``length + 1`` node ids.

    The walk follows Eq. (1): at each step a uniformly random neighbor.
    A walk stuck at an isolated node stays there.
    """
    graph._check_node(source)
    if length < 0:
        raise GraphError("length must be non-negative")
    rng = rng or np.random.default_rng()
    path = np.empty(length + 1, dtype=np.int64)
    path[0] = source
    current = source
    indptr, indices = graph.indptr, graph.indices
    for step in range(1, length + 1):
        lo, hi = indptr[current], indptr[current + 1]
        if hi > lo:
            current = int(indices[lo + rng.integers(hi - lo)])
        path[step] = current
    return path


def random_walks(
    graph: Graph,
    source: int,
    length: int,
    count: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Return ``count`` independent walks as a ``(count, length + 1)`` array.

    Rides the vectorized engine (:func:`repro.markov.walk_batch.walk_block`).
    Each walk draws from its own child stream of ``rng`` (fresh entropy
    when ``rng`` is None), so results do not depend on the schedule.
    """
    from repro.markov.walk_batch import walk_block

    graph._check_node(source)
    if count < 1:
        raise GraphError("count must be positive")
    seed = rng if rng is not None else np.random.SeedSequence()
    return walk_block(
        graph,
        np.full(count, source, dtype=np.int64),
        length,
        seed=seed,
    )


def empirical_distribution(
    graph: Graph,
    source: int,
    length: int,
    num_samples: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Estimate the ``length``-step distribution from ``num_samples`` walks.

    Converges to ``TransitionOperator.distribution_after(source, length)``
    as the sample count grows; tests use this agreement as an invariant.
    Endpoint counting runs through the engine's visit-count mode
    (``record="last"``), so memory stays O(num_nodes) however many
    samples are drawn.
    """
    from repro.markov.walk_batch import walk_visit_counts

    graph._check_node(source)
    if num_samples < 1:
        raise GraphError("num_samples must be positive")
    seed = rng if rng is not None else np.random.SeedSequence()
    counts = walk_visit_counts(
        graph,
        np.full(num_samples, source, dtype=np.int64),
        length,
        seed=seed,
        record="last",
    )
    return counts / num_samples


class RouteTable:
    """Per-node random permutations for SybilGuard-style *random routes*.

    Each node fixes a random permutation mapping incoming-edge positions
    to outgoing-edge positions.  A route entering node ``v`` through its
    ``i``-th incident edge always leaves through edge ``perm_v[i]``,
    which makes routes deterministic given entry point and guarantees
    the back-traceable / convergent route properties SybilGuard relies
    on.
    """

    def __init__(self, graph: Graph, seed: int = 0) -> None:
        self._graph = graph
        rng = np.random.default_rng(seed)
        self._perms: list[np.ndarray] = [
            rng.permutation(graph.degree(v)) for v in range(graph.num_nodes)
        ]
        # Precomputed route-stepping arrays.  Directed half-edge i is
        # (src[i] -> indices[i]) in CSR order; because CSR order sorts
        # by (src, dst) and the half-edge multiset is symmetric,
        # lexsorting by (dst, src) maps each half-edge to its reverse,
        # giving the entry *position* of every hop without a per-hop
        # neighbor scan.  Applying each node's exit permutation to the
        # entry positions yields the half-edge successor map: one O(1)
        # lookup per route step (the per-hop searchsorted survives only
        # in the public ``next_hop``, which starts from node ids).
        indptr, indices = graph.indptr, graph.indices
        if indices.size:
            src = np.repeat(graph.nodes(), graph.degrees)
            reverse = np.lexsort((src, indices))
            perm_flat = np.concatenate(self._perms)
            self._edge_successor = (
                indptr[indices] + perm_flat[reverse]
            ).astype(np.int64)
        else:
            self._edge_successor = np.empty(0, dtype=np.int64)

    @property
    def graph(self) -> Graph:
        """The graph the routes are defined over."""
        return self._graph

    def _edge_position(self, node: int, neighbor: int) -> int:
        indptr, indices = self._graph.indptr, self._graph.indices
        lo, hi = int(indptr[node]), int(indptr[node + 1])
        pos = int(np.searchsorted(indices[lo:hi], neighbor))
        if lo + pos >= hi or indices[lo + pos] != neighbor:
            raise GraphError(f"{neighbor} is not adjacent to {node}")
        return pos

    def next_hop(self, previous: int, current: int) -> int:
        """Return the node a route at ``current`` (arrived from
        ``previous``) exits to."""
        edge = self._graph.indptr[previous] + self._edge_position(previous, current)
        return int(self._graph.indices[self._edge_successor[edge]])

    def route(self, source: int, first_hop: int, length: int) -> np.ndarray:
        """Return the deterministic route of ``length`` edges starting
        ``source -> first_hop``."""
        if length < 1:
            raise GraphError("route length must be at least 1")
        path = np.empty(length + 1, dtype=np.int64)
        path[0] = source
        path[1] = first_hop
        indices = self._graph.indices
        successor = self._edge_successor
        edge = int(self._graph.indptr[source]) + self._edge_position(
            source, first_hop
        )
        for i in range(2, length + 1):
            edge = int(successor[edge])
            path[i] = indices[edge]
        return path

    def routes_from(self, source: int, length: int) -> list[np.ndarray]:
        """Return one route per incident edge of ``source``."""
        return [
            self.route(source, int(nbr), length)
            for nbr in self._graph.neighbors(source)
        ]
