"""Hitting and commute times of the social-graph walk.

Mixing time is one clock on a random walk; the Sybil-defense and
routing literature also leans on its cousins:

* **hitting time** H(u, v): expected steps for a walk from u to first
  reach v (route-length budgeting in SybilGuard-style protocols);
* **commute time** C(u, v) = H(u, v) + H(v, u): equals
  ``2 m * R_eff(u, v)`` (effective resistance), the spectral quantity
  behind random-walk betweenness.

Exact values come from linear solves on the Laplacian (fine for the
analog sizes here); a Monte-Carlo estimator covers larger graphs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DisconnectedGraphError, GraphError
from repro.graph.core import Graph
from repro.graph.traversal import is_connected
from repro.markov.walk_batch import NO_HIT, walk_first_hits

__all__ = [
    "hitting_time",
    "hitting_times_to",
    "commute_time",
    "effective_resistance",
    "estimate_hitting_time",
]


def _laplacian(graph: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian, built straight from the CSR arrays.

    One fancy-indexed assignment marks every directed half-edge
    (``L[u, v] = -1``; the graph is simple, so assignment and the old
    per-edge subtraction agree), then the diagonal gets the degrees.
    """
    n = graph.num_nodes
    lap = np.zeros((n, n))
    if graph.num_edges:
        src = np.repeat(graph.nodes(), graph.degrees)
        lap[src, graph.indices] = -1.0
    np.fill_diagonal(lap, graph.degrees.astype(float))
    return lap


def hitting_times_to(graph: Graph, target: int) -> np.ndarray:
    """Return H(u, target) for every u, by solving the linear system.

    ``H(target, target) = 0``; for u != target,
    ``H(u) = 1 + mean over neighbors w of H(w)``.
    """
    graph._check_node(target)
    if not is_connected(graph):
        raise DisconnectedGraphError("hitting times need a connected graph")
    n = graph.num_nodes
    if n == 1:
        return np.zeros(1)
    # unknowns: H(u) for u != target
    others = [u for u in range(n) if u != target]
    index = {u: i for i, u in enumerate(others)}
    a = np.zeros((n - 1, n - 1))
    b = np.ones(n - 1)
    for u in others:
        i = index[u]
        a[i, i] = 1.0
        deg = graph.degree(u)
        for w in graph.neighbors(u):
            w = int(w)
            if w != target:
                a[i, index[w]] -= 1.0 / deg
    solution = np.linalg.solve(a, b)
    out = np.zeros(n)
    for u in others:
        out[u] = solution[index[u]]
    return out


def hitting_time(graph: Graph, source: int, target: int) -> float:
    """Return the exact expected hitting time H(source, target)."""
    return float(hitting_times_to(graph, target)[source])


def effective_resistance(graph: Graph, u: int, v: int) -> float:
    """Return the effective resistance between u and v.

    Computed from the Laplacian pseudo-inverse:
    ``R(u,v) = L+[u,u] + L+[v,v] - 2 L+[u,v]``.
    """
    graph._check_node(u)
    graph._check_node(v)
    if u == v:
        return 0.0
    if not is_connected(graph):
        raise DisconnectedGraphError("effective resistance needs connectivity")
    pinv = np.linalg.pinv(_laplacian(graph))
    return float(pinv[u, u] + pinv[v, v] - 2 * pinv[u, v])


def commute_time(graph: Graph, u: int, v: int) -> float:
    """Return C(u, v) = H(u, v) + H(v, u) = 2 m R_eff(u, v)."""
    return 2.0 * graph.num_edges * effective_resistance(graph, u, v)


def estimate_hitting_time(
    graph: Graph,
    source: int,
    target: int,
    num_walks: int = 200,
    max_steps: int | None = None,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of H(source, target) by sampled first hits.

    Runs ``num_walks`` walks from ``source`` through the vectorized
    engine's first-hit mode (``max_steps`` budget, default
    ``50 n log n``) and averages the first-hit steps over the walks
    that reached the target; raises when none did.  Converges to
    :func:`hitting_time` — the linear solve stays the exact reference,
    this estimator covers graphs too large to solve densely.
    """
    graph._check_node(source)
    graph._check_node(target)
    if not is_connected(graph):
        raise DisconnectedGraphError("hitting times need a connected graph")
    if num_walks < 1:
        raise GraphError("num_walks must be positive")
    if source == target:
        return 0.0
    n = graph.num_nodes
    budget = max_steps or int(50 * n * np.log(max(n, 2)))
    mask = np.zeros(n, dtype=bool)
    mask[target] = True
    hits = walk_first_hits(
        graph,
        np.full(num_walks, source, dtype=np.int64),
        budget,
        mask,
        seed=seed,
    )
    reached = hits[hits != NO_HIT]
    if reached.size == 0:
        raise GraphError(
            f"no walk hit the target within {budget} steps; increase max_steps"
        )
    return float(reached.mean())
