"""Spectral mixing-time machinery: SLEM and the Sinclair bounds.

The paper's Table I reports the second largest eigenvalue (modulus) of
each graph's transition matrix, and Section III-C uses Sinclair's result

    (mu / (1 - mu)) * log(1 / (2 eps))  <=  T(eps)
    T(eps)  <=  (log n + log(1 / eps)) / (1 - mu)

to bound the mixing time from mu.  Because P is similar to the symmetric
normalized adjacency ``D^{-1/2} A D^{-1/2}``, its spectrum is real; the
SLEM is the second largest eigenvalue in absolute value.  Every graph,
in RAM (one block) or sharded, is read through its
:meth:`~repro.graph.shard.Shard.normalized_rows` row blocks.

The bounds use mu only through the gap ``1 - mu``, so Lanczos solves to
a relative accuracy of ``1e-5`` in the gap (and ``1e-6`` absolute in
mu), not to machine precision.  A bipartite graph's walk is periodic:
its SLEM is 1 and no finite bound exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from repro import telemetry
from repro.errors import ConvergenceError, GraphError
from repro.graph.bfs_batch import bfs_distances_block
from repro.graph.core import Graph
from repro.graph.shard import ShardedGraph
from repro.mixing.sampling import is_fast_mixing

__all__ = [
    "normalized_adjacency",
    "slem",
    "spectral_gap",
    "MixingBounds",
    "sinclair_bounds",
    "mixing_bounds",
    "PERIODIC_CHAIN",
    "spectral_summary",
]

#: Accuracy the bounds need: the SLEM error is at most this fraction of
#: the spectral gap ``1 - mu``, so both Sinclair bounds move by at most
#: this relative amount.
_GAP_RTOL = 1e-5
#: Residual tolerance relative to mu: the error is at most ``1e-6 * mu``,
#: which alone meets ``_GAP_RTOL`` whenever mu is below about 0.91.
_FIRST_TOL = 1e-6
#: Lanczos steps between two reads of the extreme Ritz pair.
_CHECK_EVERY = 10
#: Cap on the recurrence, which ends a solve whose residual stalls above
#: the tolerance.  The 1M-node streamed analog takes 730 matvecs and
#: Table I's slowest analog (dblp at scale 1.0, gap 2e-3) 460;
#: ``cycle_graph(10001)``, whose gap of 4.9e-8 asks for a residual of
#: 5e-13, takes 5010.
_MAX_MATVECS = 10_000
_EPS = float(np.finfo(float).eps)
#: A step's ``beta`` at or below this is rounding noise (``||M|| = 1``;
#: complete graphs, Petersen and short odd cycles break down at 1e-17
#: to 3e-15).
_BREAKDOWN = 1024 * _EPS


def _inv_sqrt_degrees(graph: Graph | ShardedGraph) -> np.ndarray:
    """``1/sqrt(deg)`` per node, zero at isolated nodes."""
    root = np.sqrt(graph.degrees.astype(float))
    return np.divide(1.0, root, out=np.zeros(root.size), where=root > 0)


def normalized_adjacency(graph: Graph) -> sp.csr_matrix:
    """Return ``D^{-1/2} A D^{-1/2}`` as a scipy CSR matrix.

    Shares P's eigenvalues (similarity transform by ``D^{1/2}``) while
    being symmetric, which lets us use Lanczos iteration.  A copy of
    the graph's one row block.
    """
    if graph.num_nodes == 0:
        raise GraphError("normalized adjacency of an empty graph is undefined")
    return graph.shard(0).normalized_rows(_inv_sqrt_degrees(graph)).copy()


def _dense_slem(matrix: np.ndarray) -> float:
    values = np.linalg.eigvalsh(matrix)
    magnitudes = np.sort(np.abs(values))[::-1]
    return float(magnitudes[1]) if magnitudes.size > 1 else 0.0


def _normalized_apply(
    graph: Graph | ShardedGraph,
) -> Callable[[np.ndarray], np.ndarray]:
    """Return the product ``x -> D^{-1/2} A D^{-1/2} x``.

    Each row block multiplies ``x`` into its own output rows, so a
    :class:`~repro.graph.shard.ShardedGraph` never materializes a global
    matrix and gives the in-RAM bits.  ``x`` may be a vector or a
    column block.
    """
    inv_sqrt = _inv_sqrt_degrees(graph)

    def apply(x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        for shard in graph.iter_shards():
            out[shard.lo : shard.hi] = shard.normalized_rows(inv_sqrt).dot(x)
        return out

    return apply


def _is_periodic(graph: Graph | ShardedGraph) -> bool:
    """True when the walk is periodic; rejects disconnected graphs.

    One BFS from node 0 decides both.  An unreached node means a second
    component.  An edge whose two ends lie at equal distance closes an
    odd cycle; a connected graph without one is bipartite, so P has the
    eigenvalue -1 and the walk has period 2.  The ends of an edge lie at
    most one level apart, so equal distance is equal parity, which one
    product per row block counts.
    """
    distance = bfs_distances_block(graph, [0])[0]
    if (distance < 0).any():
        raise GraphError(
            "graph is disconnected: the walk cannot mix across components "
            "(eigenvalue 1 is repeated, so the SLEM is 1 and every mixing "
            "bound is infinite); take the largest connected component first"
        )
    odd = (distance % 2).astype(np.float32)
    for shard in graph.iter_shards():
        # float32 neighbor counts are exact up to degree 2**24
        odd_neighbors = shard.adjacency_rows().dot(odd)
        same_parity = np.where(
            odd[shard.lo : shard.hi] > 0, odd_neighbors, shard.degrees - odd_neighbors
        )
        if same_parity.any():
            return False
    return True


def _extreme_ritz(alpha: list[float], beta: list[float]) -> tuple[float, float]:
    """``(theta, r)``: the extreme Ritz value of larger modulus and its residual.

    ``alpha`` and ``beta[:-1]`` are the tridiagonal matrix of the steps
    so far; ``theta`` is its lowest or highest eigenvalue, whichever has
    the larger modulus, and ``r = |beta[-1] * s[-1]|`` is the residual
    norm of its Ritz vector, ``s`` being ``theta``'s unit eigenvector.
    """
    diagonal, off = np.asarray(alpha), np.asarray(beta[:-1])
    ends = [
        eigh_tridiagonal(diagonal, off, select="i", select_range=(k, k))
        for k in (0, diagonal.size - 1)
    ]
    values, vectors = max(ends, key=lambda end: abs(end[0][0]))
    return float(values[0]), abs(beta[-1] * float(vectors[-1, 0]))


def _lanczos_slem(graph: Graph | ShardedGraph) -> float:
    """SLEM by the Lanczos recurrence on ``M - q q^T``, ``q = sqrt(deg)`` normalized.

    ``q`` is the exact eigenvector of ``M`` for the eigenvalue 1, so the
    deflated operator's largest magnitude is the SLEM.  The three-term
    recurrence keeps three vectors and no basis, so it never
    reorthogonalizes or restarts.  Every ``_CHECK_EVERY`` steps, and at
    once when the Krylov space breaks down, it reads the extreme Ritz
    pair; an eigenvalue of a symmetric operator lies within the Ritz
    residual ``r`` of the Ritz value ``theta``, and the extreme Ritz
    values never exceed the SLEM, so ``mu <= |theta| + r``.  It stops
    when ``r <= _FIRST_TOL * |theta|`` and
    ``r <= _GAP_RTOL * (1 - |theta| - r)``.  Every reduction is an
    ``einsum`` from a fixed start vector, so the result is the same
    float on every call and at any BLAS thread count.
    """
    tel = telemetry.current()
    n = graph.num_nodes
    apply = _normalized_apply(graph)
    root = np.sqrt(graph.degrees.astype(float))
    q = root / math.sqrt(np.einsum("i,i->", root, root))
    projection = np.empty(n)
    matvecs = 0

    def matvec(x: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        tel.count("mixing.slem.matvecs")
        out = apply(x)
        # einsum, not ``q @ x``: a BLAS dot splits its sum across
        # threads, and mu's bits would follow the thread count
        np.multiply(q, np.einsum("i,i->", q, x), out=projection)
        out -= projection
        return out

    start = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    v, v_prev = start / math.sqrt(np.einsum("i,i->", start, start)), np.zeros(n)
    alpha: list[float] = []
    beta: list[float] = []
    while True:
        w = matvec(v)
        alpha.append(float(np.einsum("i,i->", v, w)))
        w -= alpha[-1] * v
        if beta:
            w -= beta[-1] * v_prev
        beta.append(math.sqrt(np.einsum("i,i->", w, w)))
        # a rounding-level beta: the Krylov space is invariant, so its
        # Ritz values are eigenvalues and the next vector would be noise
        breakdown = beta[-1] <= _BREAKDOWN
        if breakdown or matvecs % _CHECK_EVERY == 0 or matvecs >= _MAX_MATVECS:
            theta, r = _extreme_ritz(alpha, beta)
            mu = abs(theta)
            tel.gauge("mixing.slem.error_bound", r)
            accurate = r <= _FIRST_TOL * mu
            gap = _GAP_RTOL * (1.0 - mu - r)
            if accurate and r <= gap:
                return mu
            if accurate and gap < _EPS * mu:
                raise ConvergenceError(
                    f"spectral gap {1.0 - mu:.1e} is below what Lanczos "
                    f"resolves (error bound {r:.1e} after {matvecs} matvecs)",
                    iterations=matvecs,
                )
            if breakdown or matvecs >= _MAX_MATVECS:
                raise ConvergenceError(
                    f"Lanczos failed to converge after {matvecs} matvecs "
                    f"(error bound {r:.1e} at mu {mu:.6f})",
                    iterations=matvecs,
                )
        v_prev, v = v, w / beta[-1]


def slem(graph: Graph | ShardedGraph, dense_threshold: int = 400) -> float:
    """Return the second largest eigenvalue modulus of P.

    A bipartite graph returns exactly 1.0 with no eigensolve, since its
    walk is periodic.  Other graphs of at most ``dense_threshold`` nodes
    are solved densely with ``eigvalsh``, the test oracle.  Larger ones
    run Lanczos on the normalized adjacency as a matrix-free operator,
    with its known top eigenvector ``sqrt(deg)`` projected out, so its
    extreme eigenvalue is the SLEM.  The operator streams the graph's row
    blocks, so a :class:`~repro.graph.shard.ShardedGraph` takes the
    in-RAM path without a global matrix.  The Lanczos result is within
    ``1e-5 * (1 - mu)`` and ``1e-6`` of the SLEM, the accuracy the
    Sinclair bounds need (see :func:`_lanczos_slem`).

    Disconnected graphs are rejected up front: eigenvalue 1 has one
    multiplicity per component, so the "second" eigenvalue is a
    (numerically duplicated) 1 and every finite mixing bound downstream
    would fail with an unhelpful range error.  Measure the largest
    connected component instead
    (:func:`repro.graph.ops.largest_connected_component`).  Raises
    :class:`~repro.errors.ConvergenceError`, carrying the matvec count
    in ``iterations``, when Lanczos does not converge within
    ``_MAX_MATVECS`` products or cannot resolve the gap.

    Telemetry: a ``mixing.slem`` span, a ``mixing.slem.matvecs`` counter
    that rises with every product, and a ``mixing.slem.error_bound``
    gauge, the bound on ``|mu_hat - mu|`` at the last Ritz read.
    """
    n = graph.num_nodes
    if n < 2:
        raise GraphError("SLEM needs at least 2 nodes")
    with telemetry.current().span("mixing.slem"):
        if _is_periodic(graph):
            return 1.0
        if n <= dense_threshold:
            return _dense_slem(_normalized_apply(graph)(np.eye(n)))
        return _lanczos_slem(graph)


def spectral_gap(graph: Graph) -> float:
    """Return ``1 - slem(graph)``, the spectral gap of the chain."""
    return 1.0 - slem(graph)


@dataclass(frozen=True)
class MixingBounds:
    """Sinclair lower/upper bounds on T(eps) computed from the SLEM."""

    slem: float
    epsilon: float
    num_nodes: int
    lower: float
    upper: float


def sinclair_bounds(mu: float, num_nodes: int, epsilon: float) -> MixingBounds:
    """Return the Sinclair bounds on ``T(eps)`` given SLEM ``mu``.

    Raises for degenerate inputs (``mu >= 1`` means no spectral gap and
    an unbounded chain — a disconnected or bipartite graph).
    """
    if not 0.0 <= mu < 1.0:
        raise GraphError("SLEM must lie in [0, 1) for finite mixing bounds")
    if not 0.0 < epsilon < 1.0:
        raise GraphError("epsilon must lie in (0, 1)")
    if num_nodes < 2:
        raise GraphError("num_nodes must be at least 2")
    gap = 1.0 - mu
    lower = (mu / gap) * math.log(1.0 / (2.0 * epsilon))
    upper = (math.log(num_nodes) + math.log(1.0 / epsilon)) / gap
    return MixingBounds(
        slem=mu, epsilon=epsilon, num_nodes=num_nodes, lower=max(lower, 0.0), upper=upper
    )


#: Printed in place of the Sinclair bounds when the walk is periodic.
PERIODIC_CHAIN = "none: periodic chain (bipartite graph)"


def mixing_bounds(
    graph: Graph | ShardedGraph, mu: float, epsilon: float | None = None
) -> MixingBounds | None:
    """Sinclair bounds at ``epsilon`` (default ``1/n``) for ``graph``
    with SLEM ``mu``.

    None for a bipartite graph: its walk has period 2 and never mixes,
    so no finite bound exists.  A single edge (two nodes) still raises
    the range error of :func:`sinclair_bounds`, the one-line rejection
    the audits give a two-node graph.
    """
    n = graph.num_nodes
    # a periodic chain's SLEM is exactly 1, so the BFS runs only then
    if n > 2 and mu == 1.0 and _is_periodic(graph):
        return None
    return sinclair_bounds(mu, n, epsilon=1 / n if epsilon is None else epsilon)


def spectral_summary(
    graph: Graph | ShardedGraph, fast_sources: int, seed: int
) -> dict:
    """The ``spectral`` store artifact: ``{"slem", "bounds", "fast"}``.

    SLEM, Sinclair bounds at ``eps = 1/n`` (:func:`mixing_bounds`; None
    for a bipartite graph) and the sampled
    :func:`~repro.mixing.is_fast_mixing` verdict over ``fast_sources``,
    on any graph store.
    """
    mu = slem(graph)
    bounds = mixing_bounds(graph, mu)
    fast = is_fast_mixing(graph, num_sources=fast_sources, seed=seed)
    return {"slem": mu, "bounds": bounds, "fast": bool(fast)}
