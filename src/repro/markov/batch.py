"""Batched multi-source walk evolution (the hot path of Figure 1).

The sampling measurements evolve *many* delta distributions through the
same transition matrix.  Doing that one sparse matvec at a time wastes
the matrix traversal: scipy's CSC/CSR kernels amortize the sparse
structure across the columns of a dense right-hand side, so evolving an
``(n, s)`` block of source distributions in one sparse x dense product
is far faster than ``s`` separate matvecs while producing bit-identical
columns (both code paths reduce each output entry in the same order).

This module is the one way to evolve a chain, shared by
:mod:`repro.mixing.sampling`, :mod:`repro.mixing.trust`,
:mod:`repro.anonymity`, the exact escape probability and the
ranking-style Sybil defenses:

* :func:`delta_block` builds the ``(n, s)`` block of source deltas.
* :func:`evolve_block` advances a block ``steps`` walk steps.
* :func:`batched_tvd_profile` records TVD-to-stationary at a grid of
  walk lengths for every source — the whole Figure-1 inner loop in a
  handful of sparse x dense products.

The chain is a transition matrix or, for the plain walk, a graph whose
row blocks scatter ``P^T @ block`` (in RAM or sharded, the bits of
``transition_matrix(graph)``); lazy and trust-weighted chains are
matrices only.

The TVD profile bounds its memory by column chunking, and the chunks
fan out through :func:`repro.chunking.run_kernel` — on threads, or on
the shared-memory process pool — as the ambient
:func:`repro.parallel.execution` scope says (``chunk_size`` keeps the
working set at ``O(n * chunk_size)``, ``workers`` sets the fan-out).
One module-level kernel runs on both backends, so every backend x
chunk_size x workers combination stays bit-identical to the others and
to the one-matvec-per-source oracle in :mod:`repro.oracles`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np
import scipy.sparse as sp

from repro import telemetry
from repro.chunking import DEFAULT_CHUNK_SIZE, run_kernel, validate_sources
from repro.errors import GraphError

if TYPE_CHECKING:
    from repro.graph.core import Graph
    from repro.graph.shard import ShardedGraph

__all__ = [
    "delta_block",
    "evolve_block",
    "batched_tvd_profile",
    "validate_walk_lengths",
    "DEFAULT_CHUNK_SIZE",
]


def validate_walk_lengths(walk_lengths: np.ndarray | Sequence[int]) -> np.ndarray:
    """Validate and return walk lengths as a strictly increasing int64 array.

    Walk length ``0`` is explicitly allowed and means "the source delta
    itself" (no steps taken); negative lengths and non-increasing grids
    are rejected with :class:`~repro.errors.GraphError`.
    """
    lengths = np.asarray(list(walk_lengths), dtype=np.int64)
    if lengths.size == 0:
        raise GraphError("walk_lengths must be non-empty")
    if lengths.min() < 0:
        raise GraphError(
            "walk_lengths must be non-negative (t=0 measures the delta itself)"
        )
    if np.any(np.diff(lengths) <= 0):
        raise GraphError("walk_lengths must be strictly increasing")
    return lengths


def delta_block(num_nodes: int, sources: np.ndarray | Sequence[int]) -> np.ndarray:
    """Return the ``(num_nodes, len(sources))`` block of delta distributions.

    Column ``j`` is the distribution concentrated at ``sources[j]``.
    Duplicate sources are allowed (each gets its own column).
    """
    chosen = validate_sources(num_nodes, sources)
    if chosen.size == 0:
        raise GraphError("sources must be non-empty")
    block = np.zeros((num_nodes, chosen.size))
    block[chosen, np.arange(chosen.size)] = 1.0
    return block


def evolve_block(
    matrix: sp.spmatrix | Graph | ShardedGraph, block: np.ndarray, steps: int = 1
) -> np.ndarray:
    """Advance every column of ``block`` by ``steps`` walk steps.

    ``matrix`` is the row-stochastic transition matrix P; each step maps
    the block ``D`` to ``P^T D`` in one sparse x dense product, whose
    column ``j`` holds the bits of ``P^T @ D[:, j]`` alone.

    A graph (in RAM or sharded) may be passed instead, and is the only
    way to step its plain walk: the product then streams the graph's
    row blocks through the CSC kernel scipy dispatches to, bit-identical
    to evolving through ``transition_matrix(graph)``.  The block moves
    whole, under any :func:`repro.parallel.execution` scope.
    """
    if steps < 0:
        raise GraphError("steps must be non-negative")
    evolver = _evolver(matrix)
    out = np.asarray(block, dtype=float)
    if out.ndim != 2 or out.shape[0] != evolver.num_nodes:
        raise GraphError(
            f"block must have shape ({evolver.num_nodes}, s), got {out.shape}"
        )
    return evolver.evolve(out, steps)


class _DenseEvolver:
    """``P^T @ block`` through one transposed resident matrix."""

    def __init__(self, matrix: sp.spmatrix) -> None:
        self.num_nodes = matrix.shape[0]
        self._transposed = matrix.T

    def evolve(self, block: np.ndarray, steps: int) -> np.ndarray:
        for _ in range(steps):
            block = self._transposed @ block
        return block


class _StoreEvolver:
    """Streams ``P^T @ block`` by row blocks, bit-identical to scipy.

    Blocks are processed in ascending node order and accumulate into
    one shared output through
    :meth:`~repro.graph.shard.Shard.scatter_transition` — the same
    per-entry reduction order as the monolithic csc product.  Isolated
    nodes (absorbing self-loops in the merged in-RAM P) are patched
    from the input block, which is exact because nothing else ever
    contributes to their rows.
    """

    def __init__(self, store: Graph | ShardedGraph) -> None:
        self._store = store
        self.num_nodes = store.num_nodes
        self._isolated = np.flatnonzero(store.degrees == 0)

    def evolve(self, block: np.ndarray, steps: int) -> np.ndarray:
        """Advance an ``(n, s)`` block (never modified in place)."""
        cur = np.ascontiguousarray(block, dtype=float)
        for _ in range(steps):
            nxt = np.zeros_like(cur)
            for shard in self._store.iter_shards():
                shard.scatter_transition(cur, nxt)
            if self._isolated.size:
                nxt[self._isolated] = cur[self._isolated]
            cur = nxt
        return cur


def _evolver(matrix) -> _DenseEvolver | _StoreEvolver:
    """The evolver of a sparse transition matrix, or of a graph's plain walk."""
    return _DenseEvolver(matrix) if sp.issparse(matrix) else _StoreEvolver(matrix)


def _evolver_setup(env) -> None:
    """Per-call kernel state: the evolver over the matrix or store."""
    env.evolver = _evolver(env.matrix)


def _tvd_rows(block: np.ndarray, stationary: np.ndarray) -> np.ndarray:
    """Per-column TVD to ``stationary``; bit-identical to the 1-D path.

    ``np.subtract(..., order="C")`` forces a C-contiguous ``(s, n)``
    difference so the ``axis=1`` reduction uses the same pairwise
    summation as ``total_variation_distance`` on a single contiguous
    vector — keeping the batched engine and the oracle byte-identical.
    """
    diff = np.subtract(block.T, stationary, order="C")
    return 0.5 * np.abs(diff).sum(axis=1)


def _tvd_kernel(columns: slice, env) -> None:
    """Evolve one chunk's deltas through the length grid; write TVD rows."""
    block = delta_block(env.evolver.num_nodes, env.sources[columns])
    step = 0
    for col, target in enumerate(env.lengths):
        block = env.evolver.evolve(block, int(target) - step)
        step = int(target)
        env.out[columns, col] = _tvd_rows(block, env.stationary)
    telemetry.current().count(
        "markov.batch.steps", int(env.lengths[-1]) * (columns.stop - columns.start)
    )


def batched_tvd_profile(
    matrix: sp.spmatrix | Graph | ShardedGraph,
    stationary: np.ndarray,
    sources: np.ndarray | Sequence[int],
    walk_lengths: np.ndarray | Sequence[int],
) -> np.ndarray:
    """Return the ``(len(sources), len(walk_lengths))`` TVD matrix.

    Entry ``[j, t]`` is the total variation distance between source
    ``sources[j]``'s ``walk_lengths[t]``-step distribution and
    ``stationary``.  Sources are evolved as dense column blocks of at
    most the ambient scope's ``chunk_size`` columns (default
    ``DEFAULT_CHUNK_SIZE``); the independent chunks fan out through
    :func:`repro.chunking.run_kernel`, bit-identical on every backend.

    ``matrix`` may be a graph instead, as in :func:`evolve_block`.
    ``stationary`` must have shape ``(n,)``.

    An empty source array is legal and returns the empty
    ``(0, len(walk_lengths))`` matrix (walk lengths are still
    validated) — the engine-level face of the chunk planner's
    empty-plan semantics.
    """
    lengths = validate_walk_lengths(walk_lengths)
    n = matrix.shape[0] if sp.issparse(matrix) else matrix.num_nodes
    pi = np.asarray(stationary, dtype=float)
    if pi.shape != (n,):
        raise GraphError(f"stationary must have shape ({n},), got {pi.shape}")
    chosen = validate_sources(n, sources)
    tvd = np.empty((chosen.size, lengths.size))
    if chosen.size == 0:
        return tvd
    tel = telemetry.current()
    with tel.span("markov.batch.tvd_profile"):
        tel.count("markov.batch.sources", int(chosen.size))
        run_kernel(
            _tvd_kernel,
            chosen.size,
            inputs={
                "matrix": matrix,
                "stationary": pi,
                "sources": chosen,
                "lengths": lengths,
            },
            outputs={"out": tvd},
            setup=_evolver_setup,
            span="markov.batch.evolve_chunk",
        )
    return tvd
