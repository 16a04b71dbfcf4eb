"""Non-reversible chains on directed social graphs.

The paper symmetrizes its directed traces before measuring; the
authors' follow-up shows directed mixing behaves differently, because
the directed walk's chain is non-reversible and may not even be
irreducible (sink strongly-connected components trap the walk).  This
module provides:

* the directed transition matrix with PageRank-style teleportation to
  restore ergodicity (``damping < 1``),
* stationary distributions via power iteration (no detailed balance, so
  the degree formula does not apply),
* a TVD-vs-walk-length measurement comparable to the undirected
  Figure-1 curves.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.chunking import sample_sources
from repro.digraph.core import DiGraph
from repro.errors import ConvergenceError, GraphError
from repro.markov.distance import total_variation_distance

__all__ = [
    "directed_transition_matrix",
    "directed_stationary",
    "directed_mixing_profile",
]


def directed_transition_matrix(
    digraph: DiGraph, damping: float = 1.0
) -> sp.csr_matrix:
    """Return the directed walk matrix, optionally damped.

    With ``damping = d < 1`` the walk teleports to a uniformly random
    node with probability ``1 - d`` each step (and always teleports from
    sinks), which makes the chain ergodic on any digraph — the standard
    PageRank construction.  ``damping = 1`` gives the raw chain, where
    sinks self-loop.
    """
    n = digraph.num_nodes
    if n == 0:
        raise GraphError("transition matrix of an empty digraph is undefined")
    if not 0.0 < damping <= 1.0:
        raise GraphError("damping must be in (0, 1]")
    out = digraph.out_degrees.astype(float)
    inv = np.zeros(n)
    positive = out > 0
    inv[positive] = 1.0 / out[positive]
    data = np.repeat(inv, digraph.out_degrees)
    arcs = digraph.arc_array()
    walk = sp.csr_matrix(
        (data, (arcs[:, 0], arcs[:, 1])) if arcs.size else ((n, n)),
        shape=(n, n),
    ) if arcs.size else sp.csr_matrix((n, n))
    sinks = np.flatnonzero(~positive)
    if damping == 1.0:
        if sinks.size:
            walk = walk + sp.csr_matrix(
                (np.ones(sinks.size), (sinks, sinks)), shape=(n, n)
            )
        return walk.tocsr()
    # damped: d * walk + rows for sinks spread uniformly + teleportation
    dense_rows = sp.csr_matrix(
        (np.full(sinks.size * n, 1.0 / n),
         (np.repeat(sinks, n), np.tile(np.arange(n), sinks.size))),
        shape=(n, n),
    ) if sinks.size else sp.csr_matrix((n, n))
    stochastic = walk + dense_rows
    teleport = sp.csr_matrix(np.full((n, n), 1.0 / n))
    return (damping * stochastic + (1.0 - damping) * teleport).tocsr()


#: Power iteration stops when one step moves the distribution by less
#: than this in L1, and gives up after ``_MAX_ITERATIONS`` steps.
_STATIONARY_TOL = 1e-12
_MAX_ITERATIONS = 10_000


def directed_stationary(digraph: DiGraph, damping: float = 0.85) -> np.ndarray:
    """Return the stationary distribution by power iteration.

    Unlike the undirected chain there is no closed form: the directed
    stationary distribution is the dominant left eigenvector of P.
    """
    matrix = directed_transition_matrix(digraph, damping=damping)
    n = digraph.num_nodes
    dist = np.full(n, 1.0 / n)
    for _ in range(_MAX_ITERATIONS):
        nxt = matrix.T @ dist
        nxt /= nxt.sum()
        if np.abs(nxt - dist).sum() < _STATIONARY_TOL:
            return nxt
        dist = nxt
    raise ConvergenceError(
        "power iteration did not converge; the raw chain may be periodic "
        "or reducible — use damping < 1",
        iterations=_MAX_ITERATIONS,
    )


def directed_mixing_profile(
    digraph: DiGraph,
    walk_lengths: list[int],
    damping: float = 0.85,
    num_sources: int = 50,
    seed: int = 0,
) -> np.ndarray:
    """Return mean TVD-to-stationary per walk length for the damped chain.

    The directed analog of the Figure-1 sampling measurement; compare
    against the symmetrized graph's profile to quantify what
    symmetrization hides.
    """
    lengths = np.asarray(walk_lengths, dtype=np.int64)
    if lengths.size == 0 or np.any(np.diff(lengths) <= 0):
        raise GraphError("walk_lengths must be strictly increasing")
    rng = np.random.default_rng(seed)
    sources = sample_sources(rng, digraph.num_nodes, num_sources, "num_sources")
    matrix = directed_transition_matrix(digraph, damping=damping)
    pi = directed_stationary(digraph, damping=damping)
    tvd = np.zeros((sources.size, lengths.size))
    for row, source in enumerate(sources):
        dist = np.zeros(digraph.num_nodes)
        dist[source] = 1.0
        step = 0
        for col, target in enumerate(lengths):
            while step < target:
                dist = matrix.T @ dist
                step += 1
            tvd[row, col] = total_variation_distance(dist, pi)
    return tvd.mean(axis=0)
