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
import scipy.sparse.linalg as spla

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
#: First-pass ARPACK tolerance: the error is at most ``1e-6 * mu``, which
#: meets ``_GAP_RTOL`` whenever mu is below about 0.91.
_FIRST_TOL = 1e-6
#: Lanczos basis size (scipy's default is 20).  The streamed analogs
#: carry a near-degenerate subdominant cluster, and the larger basis
#: cut the matvecs of a three-eigenvalue solve at ``tol=1e-10`` from
#: 1234 to 866 at 50k nodes and from 2401 to 1370 at 200k, for
#: ``8 * 40 * n`` bytes of workspace.
_LANCZOS_NCV = 40
#: Basis of the second, tighter pass on slow graphs, which restarts
#: from the fixed start vector.  On dblp (15k nodes, gap 2e-3) it took
#: 513 matvecs where 40 vectors took 1533; the cost is ``8 * 80 * n``
#: bytes of workspace, on slow graphs only.
_SECOND_PASS_NCV = 80


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


def _lanczos_slem(graph: Graph | ShardedGraph) -> float:
    """SLEM by ARPACK Lanczos on ``M - q q^T``, ``q = sqrt(deg)`` normalized.

    ``q`` is the exact eigenvector of ``M`` for the eigenvalue 1, so the
    deflated operator's largest magnitude is the SLEM, and one
    eigenvalue (``k=1``) is asked for.  ARPACK stops when the Ritz
    residual is at most ``tol * mu``, and an eigenvalue of a symmetric
    operator lies within that residual of the Ritz value.  The first
    pass runs at ``_FIRST_TOL``; when that bound exceeds ``_GAP_RTOL``
    of the smallest gap it allows, a second pass solves at the
    tolerance that gap needs.  Both start from a fixed vector, which
    makes the result the same float on every call.
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
        # einsum, not ``q @ x``: numpy's BLAS pool would spin against
        # the one scipy's ARPACK uses
        np.multiply(q, np.einsum("i,i->", q, x), out=projection)
        out -= projection
        return out

    operator = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    start = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    tol, ncv = _FIRST_TOL, _LANCZOS_NCV
    for passes in (1, 2):
        tel.gauge("mixing.slem.passes", passes)
        try:
            values = spla.eigsh(
                operator,
                k=1,
                ncv=min(n, ncv),
                which="LM",
                v0=start,
                tol=tol,
                return_eigenvectors=False,
            )
        except spla.ArpackError as exc:
            raise ConvergenceError(
                f"Lanczos failed to converge after {matvecs} matvecs: {exc}",
                iterations=matvecs,
            ) from exc
        mu = min(abs(float(values[0])), 1.0)
        bound = tol * mu
        tel.gauge("mixing.slem.error_bound", bound)
        # Ritz values never exceed the SLEM, so mu <= mu_hat + bound
        top = mu + bound
        if bound <= _GAP_RTOL * (1.0 - top):
            return mu
        tol = _GAP_RTOL * (1.0 - top) / ((1.0 + _GAP_RTOL) * top)
        # ARPACK cannot resolve a residual below machine precision
        tol = max(tol, float(np.finfo(float).eps))
        ncv = _SECOND_PASS_NCV
    raise ConvergenceError(
        f"spectral gap {1.0 - mu:.1e} is below what Lanczos resolves "
        f"(error bound {bound:.1e} after {matvecs} matvecs)",
        iterations=matvecs,
    )


def slem(graph: Graph | ShardedGraph, dense_threshold: int = 400) -> float:
    """Return the second largest eigenvalue modulus of P.

    A bipartite graph returns exactly 1.0 with no eigensolve, since its
    walk is periodic.  Other graphs of at most ``dense_threshold`` nodes
    are solved densely with ``eigvalsh``, the test oracle.  Larger ones
    run Lanczos on the normalized adjacency as a matrix-free operator,
    with its known top eigenvector ``sqrt(deg)`` projected out, so one
    eigenvalue is asked for.  The operator streams the graph's row
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
    in ``iterations``, when Lanczos does not converge.

    Telemetry: a ``mixing.slem`` span, a ``mixing.slem.matvecs`` counter
    that rises with every product, and two gauges per Lanczos solve:
    ``mixing.slem.passes`` and ``mixing.slem.error_bound``, the bound on
    ``|mu_hat - mu|``.
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
