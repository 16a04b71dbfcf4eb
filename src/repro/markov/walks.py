"""Monte-Carlo random walks on graphs.

The Sybil defenses in :mod:`repro.sybil` are built on sampled walks and
random *routes* (SybilGuard's permutation-based deterministic walks);
this module provides both, plus empirical visit distributions for
cross-checking the algebraic evolution of
:func:`repro.markov.batch.evolve_block`.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
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

    Converges to ``evolve_block(graph, delta_block(n, [source]), length)``
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


#: Most route keys (table rows x half-edges) drawn and sorted at once
#: while a successor block is built; larger blocks go in row blocks.
_KEY_BLOCK = 1 << 20


def _route_keys(
    rng: np.random.Generator, rows: int, num_half_edges: int
) -> np.ndarray:
    """The next ``(rows, 2m)`` block of 32-bit route keys from ``rng``.

    Row ``i`` keys route-table instance ``i``, entry ``e`` half-edge ``e``
    in CSR order.  Each node leaves through its half-edges in ascending
    key order, ties in CSR order.  The half-edge count is even, so row
    blocks drawn one after another read the stream a single draw reads.
    """
    return rng.integers(0, 1 << 32, size=(rows, num_half_edges), dtype=np.uint32)


def _successor_block(
    graph: Graph, rng: np.random.Generator, rows: int
) -> np.ndarray:
    """The half-edge successor maps of ``rows`` route tables, as one block.

    Half-edge ``e`` of instance ``i`` has the flat id ``i * 2m + e``, and
    entry ``[i, e]`` is the flat id of the half-edge a route of instance
    ``i`` leaves on after arriving over ``e``, so the flattened block is
    one successor map: each route hop is one gather.  A node's exit
    permutation sorts its half-edges by key; one stable argsort of
    ``(src << 32) | key`` sorts every node of a row block at once, so
    ``order[indptr[v] + j]`` is the half-edge ``v`` exits on from entry
    position ``j``.  A route arriving over ``u -> v`` enters ``v`` at the
    position of its reverse half-edge ``v -> u``, hence
    ``successor = order[reverse]``.  Ids are int32 below 2**31.
    """
    indices = graph.indices
    size = int(indices.size)
    dtype = np.int32 if rows * size < 2**31 else np.int64
    out = np.empty((rows, size), dtype=dtype)
    if size == 0:
        return out
    src = np.repeat(graph.nodes(), graph.degrees)
    # CSR order sorts half-edges by (src, dst); (dst, src) order lists
    # each one's reverse
    reverse = np.lexsort((src, indices))
    high = src.astype(np.uint64) << np.uint64(32)
    step = max(1, _KEY_BLOCK // size)
    for lo in range(0, rows, step):
        keys = _route_keys(rng, min(step, rows - lo), size)
        order = np.argsort(high | keys, axis=1, kind="stable")
        order += (np.arange(lo, lo + keys.shape[0]) * size)[:, None]
        out[lo : lo + keys.shape[0]] = order[:, reverse]
    return out


def _advance_routes(
    successor: np.ndarray, edges: np.ndarray, length: int, path: bool = False
) -> np.ndarray:
    """Route ``length`` edges from each starting half-edge in ``edges``.

    ``successor`` is a flattened :func:`_successor_block` and ``edges``
    holds flat ids.  The block advances as one vector, one gather per
    hop.  Returns each route's last half-edge, or with ``path`` the
    ``(routes, length)`` block of every half-edge each route takes.

    Telemetry: one ``sybil.routes`` span per block, and the
    ``sybil.routes.hops`` counter adds ``routes * (length - 1)``.
    """
    edges = np.asarray(edges, dtype=successor.dtype)
    tel = telemetry.current()
    with tel.span("sybil.routes"):
        tel.count("sybil.routes.hops", edges.size * (length - 1))
        if not path:
            for _ in range(length - 1):
                edges = successor[edges]
            return edges
        hops = np.empty((length, edges.size), dtype=successor.dtype)
        hops[0] = edges
        for k in range(1, length):
            hops[k] = successor[hops[k - 1]]
        return hops.T


def _route_tails(graph: Graph, seed: int, rows: int, length: int) -> np.ndarray:
    """The last half-edge of every node's route in each of ``rows`` tables.

    One stream, ``default_rng(seed)``, gives the ``(rows, 2m)`` key block
    of :func:`_successor_block`, then an ``(n, rows)`` block of uniforms
    ``u``: node ``v``'s route in table ``i`` starts on its neighbor
    ``floor(u[v, i] * deg(v))`` and runs ``length`` edges.  All ``n *
    rows`` routes advance as one block.  Returns an ``(n, rows)`` array
    of half-edge ids, -1 on the rows of isolated nodes.
    """
    rng = np.random.default_rng(seed)
    successor = _successor_block(graph, rng, rows)
    u = rng.random((graph.num_nodes, rows))
    deg = graph.degrees
    live = deg > 0
    hop = np.minimum((u[live] * deg[live, None]).astype(np.int64), deg[live, None] - 1)
    offsets = np.arange(rows) * graph.indices.size
    start = graph.indptr[:-1][live, None] + hop + offsets
    tails = np.full((graph.num_nodes, rows), -1, dtype=np.int64)
    ends = _advance_routes(successor.ravel(), start.ravel(), length)
    tails[live] = ends.reshape(-1, rows) - offsets
    return tails


class RouteTable:
    """Per-node random permutations for SybilGuard-style *random routes*.

    Each node fixes a random permutation mapping incoming-edge positions
    to outgoing-edge positions.  A route entering node ``v`` through its
    ``i``-th incident edge always leaves through edge ``perm_v[i]``,
    which makes routes deterministic given entry point and guarantees
    the back-traceable / convergent route properties SybilGuard relies
    on.  The permutations come from one row of route keys drawn from
    ``default_rng(seed)`` (:func:`_successor_block`): each node exits
    its edges in ascending key order.  SybilLimit's instance 0 with the
    same seed is this table.
    """

    def __init__(self, graph: Graph, seed: int = 0) -> None:
        self._graph = graph
        self._edge_successor = _successor_block(
            graph, np.random.default_rng(seed), 1
        )[0]

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

    def _routes(self, edges: np.ndarray, length: int) -> np.ndarray:
        """The ``(routes, length + 1)`` node block of the routes of
        ``length`` edges that start on half-edges ``edges``."""
        if length < 1:
            raise GraphError("route length must be at least 1")
        hops = _advance_routes(self._edge_successor, edges, length, path=True)
        out = np.empty((hops.shape[0], length + 1), dtype=np.int64)
        out[:, 0] = np.searchsorted(self._graph.indptr, edges, side="right") - 1
        out[:, 1:] = self._graph.indices[hops]
        return out

    def route(self, source: int, first_hop: int, length: int) -> np.ndarray:
        """Return the deterministic route of ``length`` edges starting
        ``source -> first_hop``."""
        edge = int(self._graph.indptr[source]) + self._edge_position(
            source, first_hop
        )
        return self._routes(np.array([edge]), length)[0]

    def routes_from(self, source: int, length: int) -> list[np.ndarray]:
        """Return one route per incident edge of ``source``."""
        self._graph._check_node(source)
        indptr = self._graph.indptr
        return list(self._routes(np.arange(indptr[source], indptr[source + 1]), length))
