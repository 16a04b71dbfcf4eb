"""Random routes: the permutation walks of SybilGuard and SybilLimit.

Each node of a *route table* fixes a random permutation from the edge a
route enters on to the edge it leaves on, so a route is a deterministic
walk given its first hop, and two routes that cross one edge in one
direction leave it together.  Every table of a seed comes from one key
block drawn from ``default_rng(seed)`` (:func:`_successor_block`), and
a block of routes advances one gather per hop.  SybilGuard routes every
half-edge of table 0 (:func:`_route_paths`); SybilLimit routes every
node's first hop in each of ``r`` tables (:func:`_route_tails`).
Sampled walks come from :mod:`repro.markov.walk_batch`.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.graph.core import Graph

__all__: list[str] = []


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


def _route_paths(graph: Graph, seed: int, length: int) -> np.ndarray:
    """Every half-edge's route of ``length`` edges in one route table.

    The table is row 0 of the ``default_rng(seed)`` key block
    (:func:`_successor_block`); its first instance in
    :func:`_route_tails` is the same table.  Row ``e`` of the returned
    ``(2m, length + 1)`` node block is the route that leaves on
    half-edge ``e`` (CSR order), so node ``v``'s routes are rows
    ``indptr[v]:indptr[v + 1]``.  All ``2m`` routes advance as one
    block.
    """
    successor = _successor_block(graph, np.random.default_rng(seed), 1)[0]
    hops = _advance_routes(successor, np.arange(graph.indices.size), length, path=True)
    out = np.empty((hops.shape[0], length + 1), dtype=np.int64)
    out[:, 0] = np.repeat(graph.nodes(), graph.degrees)
    out[:, 1:] = graph.indices[hops]
    return out
