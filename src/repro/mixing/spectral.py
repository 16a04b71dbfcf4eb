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
    "spectral_summary",
    "spectral_mixing_time",
]

#: Eigenvalues Lanczos is asked for; ARPACK needs more nodes than this.
_LANCZOS_K = 3
#: Lanczos basis size (scipy's default is 20).  The streamed analogs
#: carry a near-degenerate subdominant cluster, and the larger basis
#: cut the matvecs to converge it from 1234 to 866 at 50k nodes and
#: from 2401 to 1370 at 200k, for ``8 * 40 * n`` bytes of workspace.
_LANCZOS_NCV = 40


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


def _check_connected(graph: Graph | ShardedGraph) -> None:
    """Reject disconnected graphs with the standard mixing error."""
    if (bfs_distances_block(graph, [0])[0] < 0).any():
        raise GraphError(
            "graph is disconnected: the walk cannot mix across components "
            "(eigenvalue 1 is repeated, so the SLEM is 1 and every mixing "
            "bound is infinite); take the largest connected component first"
        )


def _lanczos_slem(
    apply: Callable[[np.ndarray], np.ndarray], n: int, tol: float
) -> float:
    """SLEM by ARPACK Lanczos on the matrix-free operator ``apply``.

    Asks for the ``_LANCZOS_K`` largest-magnitude eigenvalues (the
    leading 1 plus the two next, so the SLEM is found whichever sign
    it has) from a fixed start vector, which makes the result the same
    float on every call.
    """
    tel = telemetry.current()
    matvecs = 0

    def matvec(x: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        return apply(x)

    operator = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    start = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    try:
        values = spla.eigsh(
            operator,
            k=_LANCZOS_K,
            ncv=min(n, _LANCZOS_NCV),
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
    finally:
        tel.count("mixing.slem.matvecs", matvecs)
    magnitudes = np.sort(np.abs(values))[::-1]
    # the leading eigenvalue of a connected graph is exactly 1; the next
    # magnitude is the SLEM (clip numerical overshoot just above 1).
    return float(min(magnitudes[1], 1.0))


def slem(
    graph: Graph | ShardedGraph, tol: float = 1e-10, dense_threshold: int = 400
) -> float:
    """Return the second largest eigenvalue modulus of P.

    Graphs of at most ``dense_threshold`` nodes (and any graph too
    small for Lanczos) are solved densely; larger ones by Lanczos on
    the normalized adjacency as a matrix-free operator, asking for the
    three largest-magnitude eigenvalues and discarding the leading 1.
    The operator streams the graph's row blocks, so a
    :class:`~repro.graph.shard.ShardedGraph` takes the in-RAM path
    without a global matrix.  ``tol`` is ARPACK's relative accuracy
    for the eigenvalues.

    Disconnected graphs are rejected up front: eigenvalue 1 has one
    multiplicity per component, so the "second" eigenvalue is a
    (numerically duplicated) 1 and every finite mixing bound downstream
    would fail with an unhelpful range error.  Measure the largest
    connected component instead
    (:func:`repro.graph.ops.largest_connected_component`).  Raises
    :class:`~repro.errors.ConvergenceError`, carrying the matvec count
    in ``iterations``, when Lanczos does not converge.

    Telemetry: a ``mixing.slem`` span and a ``mixing.slem.matvecs``
    counter.
    """
    n = graph.num_nodes
    if n < 2:
        raise GraphError("SLEM needs at least 2 nodes")
    with telemetry.current().span("mixing.slem"):
        _check_connected(graph)
        apply = _normalized_apply(graph)
        if n <= max(dense_threshold, _LANCZOS_K):
            return _dense_slem(apply(np.eye(n)))
        return _lanczos_slem(apply, n, tol)


def spectral_gap(graph: Graph, **kwargs: float) -> float:
    """Return ``1 - slem(graph)``, the spectral gap of the chain."""
    return 1.0 - slem(graph, **kwargs)


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


def spectral_summary(
    graph: Graph | ShardedGraph, fast_sources: int, seed: int
) -> dict:
    """The ``spectral`` store artifact: ``{"slem", "bounds", "fast"}``.

    SLEM, Sinclair bounds at ``eps = 1/n`` and the sampled
    :func:`~repro.mixing.is_fast_mixing` verdict over ``fast_sources``,
    on any graph store.
    """
    mu = slem(graph)
    bounds = sinclair_bounds(mu, graph.num_nodes, epsilon=1 / graph.num_nodes)
    fast = is_fast_mixing(graph, num_sources=fast_sources, seed=seed)
    return {"slem": mu, "bounds": bounds, "fast": bool(fast)}


def spectral_mixing_time(
    graph: Graph, epsilon: float | None = None, **slem_kwargs: float
) -> MixingBounds:
    """Measure SLEM then return Sinclair bounds.

    ``epsilon`` defaults to ``1/n``, the fast-mixing threshold scale
    used throughout the paper (``eps = Theta(1/n)``).
    """
    eps = 1.0 / graph.num_nodes if epsilon is None else epsilon
    mu = slem(graph, **slem_kwargs)
    return sinclair_bounds(mu, graph.num_nodes, eps)
