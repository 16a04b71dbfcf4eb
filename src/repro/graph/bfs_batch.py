"""Batched multi-source BFS (the hot path of Figures 3-4 and Table II).

The expansion measurement (Section III-D, Eq. 4) builds a BFS tree from
*every* node, and the ticket-distribution defenses (GateKeeper, SumUp)
need per-source distance levels for every distributor.  Running those one
:func:`~repro.graph.traversal.bfs_distances` call at a time repeats the
frontier bookkeeping per source; this engine advances a whole *block* of
sources level-synchronously instead.

State is an ``(n, s)`` boolean visited block plus an ``(n, s)`` frontier
indicator block.  Each level performs **one CSR operation for the entire
block**: the sparse adjacency matrix multiplies the dense frontier
block, so every frontier neighbor of every column is touched in a single
C-level pass over the CSR arrays, then masked against the visited block
to become the next frontier.  A per-source frontier gather would move
the same elements through a dozen interpreted numpy kernels per level
per source; the matmul pays that traversal once per level for the whole
block, which is where the engine's speedup comes from.

Outputs never materialize per-level node lists:

* :func:`bfs_level_sizes_block` returns the ``(s, L)`` matrix of
  ``|L_i|`` level sizes (zero-padded past each source's eccentricity) —
  exactly the quantity Eq. 4 consumes.
* :func:`bfs_distances_block` returns the ``(s, n)`` hop-distance matrix
  (``-1`` for unreachable), row ``j`` byte-identical to
  ``bfs_distances(graph, sources[j])``.

Each row block of the graph (one for a resident graph, every shard of
a :class:`~repro.graph.shard.ShardedGraph`) writes its product into its
own output rows, so in-RAM and sharded runs are the same bits.

Both are scheduled like the walk engines, by the ambient
:func:`repro.parallel.execution` scope: ``chunk_size`` bounds memory at
``O(n * chunk_size)`` and ``workers`` fans source chunks out.  One
module-level kernel runs through :func:`repro.chunking.run_kernel` on
threads or, under a process scope, on the shared-memory process pool
(the CSR arrays are published once; each worker builds the float32
adjacency once per graph, so results stay bit-identical).  The
per-source oracles live in :mod:`repro.oracles`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.sparse import _sparsetools

from repro import telemetry
from repro.chunking import DEFAULT_CHUNK_SIZE, run_kernel, validate_sources
from repro.errors import GraphError
from repro.graph.core import Graph
from repro.graph.shard import ShardedGraph

__all__ = [
    "bfs_level_sizes_block",
    "bfs_distances_block",
    "DEFAULT_CHUNK_SIZE",
]

_UNREACHED = -1


def _frontier_counts(
    graph: Graph | ShardedGraph, frontier: np.ndarray
) -> np.ndarray:
    """Return ``A @ frontier``: per (node, column), its frontier neighbors.

    Each block's rows go straight into its zeroed output rows through
    ``csr_matvecs``, the kernel scipy's ``@`` calls (no per-level copy).
    ``frontier`` must be a C-contiguous ``(n, s)`` float32 block.
    """
    out = np.zeros((graph.num_nodes, frontier.shape[1]), dtype=np.float32)
    for shard in graph.iter_shards():
        rows = shard.adjacency_rows()
        _sparsetools.csr_matvecs(
            *rows.shape, frontier.shape[1], rows.indptr, rows.indices,
            rows.data, frontier.ravel(), out[shard.lo : shard.hi].ravel(),
        )
    return out


def _levels_kernel(columns: slice, env) -> np.ndarray:
    """Return one chunk's level-size block (merged by the caller)."""
    block = _bfs_chunk(env.graph, env.sources[columns], env.max_levels, None)
    telemetry.current().count("graph.bfs.levels", int(block.shape[1]))
    return block


def _distances_kernel(columns: slice, env) -> None:
    """Fill one chunk's rows of the distance matrix ``env.out``."""
    block = _bfs_chunk(env.graph, env.sources[columns], None, env.out[columns])
    telemetry.current().count("graph.bfs.levels", int(block.shape[1]))


def _check(graph: Graph | ShardedGraph, sources) -> np.ndarray:
    chosen = validate_sources(graph.num_nodes, sources)
    if chosen.size == 0:
        raise GraphError("sources must be non-empty")
    return chosen


def _bfs_chunk(
    graph: Graph | ShardedGraph,
    sources: np.ndarray,
    max_levels: int | None,
    distances: np.ndarray | None,
) -> np.ndarray:
    """Level-synchronous BFS over one column chunk.

    Returns the ``(s, L)`` level-size matrix for the chunk (``L`` is the
    chunk's deepest eccentricity + 1, capped at ``max_levels + 1``); when
    ``distances`` (an ``(s, n)`` view pre-filled with ``-1``) is given,
    hop distances are recorded as levels settle.
    """
    s = sources.size
    columns = np.arange(s, dtype=np.int64)
    frontier = np.zeros((graph.num_nodes, s), dtype=np.float32)
    frontier[sources, columns] = 1.0
    visited = frontier > 0
    if distances is not None:
        distances[columns, sources] = 0
    counts = [np.ones(s, dtype=np.int64)]  # level 0: the sources themselves
    level = 0
    while max_levels is None or level < max_levels:
        level += 1
        # one CSR pass for the whole block: the sparse adjacency times
        # the dense frontier indicator counts, per (node, column), how
        # many frontier neighbors that node has in that column
        fresh = _frontier_counts(graph, frontier) > 0
        fresh &= ~visited
        per_column = fresh.sum(axis=0).astype(np.int64)
        if not per_column.any():
            break
        visited |= fresh
        if distances is not None:
            distances[fresh.T] = level
        counts.append(per_column)
        frontier = fresh.astype(np.float32)
    return np.stack(counts, axis=1)


def bfs_level_sizes_block(
    graph: Graph | ShardedGraph,
    sources: np.ndarray | Sequence[int],
    max_levels: int | None = None,
) -> np.ndarray:
    """Return the ``(len(sources), L)`` matrix of BFS level sizes.

    ``out[j, i]`` is ``|L_i|``, the number of nodes at hop distance
    exactly ``i`` from ``sources[j]``; entries past source ``j``'s
    eccentricity are zero (level sets are contiguous, so the first zero
    in a row marks its end).  ``L`` is the deepest measured level + 1
    over all sources.  Row ``j`` equals
    ``[len(l) for l in bfs_levels(graph, sources[j])]`` padded with
    zeros — pinned byte-identical by the equivalence suite.

    ``max_levels`` stops every BFS after that many levels beyond the
    source (the envelope measurement's ``max_radius`` bound), saving the
    deep tail entirely instead of discarding it afterwards.  The
    ambient :func:`repro.parallel.execution` scope's ``chunk_size``
    bounds memory at ``O(n * chunk_size)`` booleans; its ``workers``
    fans independent chunks out.
    """
    chosen = _check(graph, sources)
    if max_levels is not None and max_levels < 0:
        raise GraphError("max_levels must be non-negative")
    blocks: dict[int, np.ndarray] = {}
    tel = telemetry.current()
    with tel.span("graph.bfs.level_sizes"):
        tel.count("graph.bfs.sources", int(chosen.size))
        run_kernel(
            _levels_kernel,
            chosen.size,
            inputs={"graph": graph, "sources": chosen, "max_levels": max_levels},
            merge=lambda columns, block: blocks.__setitem__(columns.start, block),
            span="graph.bfs.frontier_chunk",
        )
        width = max(block.shape[1] for block in blocks.values())
        out = np.zeros((chosen.size, width), dtype=np.int64)
        for start, block in blocks.items():
            out[start : start + block.shape[0], : block.shape[1]] = block
        return out


def bfs_distances_block(
    graph: Graph | ShardedGraph,
    sources: np.ndarray | Sequence[int],
) -> np.ndarray:
    """Return the ``(len(sources), n)`` hop-distance matrix.

    Row ``j`` is byte-identical to ``bfs_distances(graph, sources[j])``:
    hop distances from ``sources[j]``, ``-1`` for unreachable nodes.
    Chunks are scheduled as in :func:`bfs_level_sizes_block`; note the
    output itself is ``O(n * len(sources))``, so chunking bounds only
    the *extra* working set.
    """
    chosen = _check(graph, sources)
    out = np.full((chosen.size, graph.num_nodes), _UNREACHED, dtype=np.int64)
    tel = telemetry.current()
    with tel.span("graph.bfs.distances"):
        tel.count("graph.bfs.sources", int(chosen.size))
        run_kernel(
            _distances_kernel,
            chosen.size,
            inputs={"graph": graph, "sources": chosen},
            outputs={"out": out},
            span="graph.bfs.frontier_chunk",
        )
    return out
