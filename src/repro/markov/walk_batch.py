"""Vectorized Monte-Carlo walk engine (the third block engine).

The dense-distribution engine (:mod:`repro.markov.batch`) and the BFS
engine (:mod:`repro.graph.bfs_batch`) cover algebraic evolution and
shortest-path levels; every *sampled* walk in the repo — escape
probability, SybilDefender/SybilInfer statistics, GateKeeper
distributor selection, Whānau table sampling, SybilFuse's trust
walks, Monte-Carlo hitting/cover estimators — still needs actual
random trajectories.  This module advances a ``(num_walks,)`` state
vector one step per iteration with a single CSR gather::

    next = indices[indptr[state] + floor(u * degree[state])]

instead of ``num_walks x length`` Python iterations, in four modes:

* :func:`walk_block` — full trajectories, ``(num_walks, length + 1)``;
* :func:`walk_endpoints` — endpoints only, O(num_walks) memory;
* :func:`walk_first_hits` — first step touching a node mask
  (:data:`NO_HIT` when a walk never does), the escape-probability and
  Monte-Carlo hitting-time primitive;
* :func:`walk_visit_counts` — per-node visit accumulation over every
  position (``np.bincount`` of :func:`walk_endpoints` is the empirical
  ``length``-step distribution);

plus :func:`walk_cover_steps`, the cover-time tracker built on the
same stepping kernel: :meth:`repro.graph.shard.Shard.advance` on the
graph's row blocks, so in-RAM and sharded walks are the same bits.

**Seed discipline.**  Every walk owns an independent child stream of
one root :class:`numpy.random.SeedSequence` (``spawn`` per walk), and
each walk's step ``t`` consumes exactly the ``t``-th uniform double of
its own stream.  Results are therefore **bit-identical** for every
schedule the ambient :func:`repro.parallel.execution` scope sets
(``chunk_size`` x ``workers``, on both backends of
:func:`repro.chunking.run_kernel` — seed streams pickle their exact
generator state), and identical to the per-walk oracles of
:mod:`repro.oracles` — the property the equivalence suite pins.  Each
mode is one module-level kernel; every chunk reports a
``markov.walk.chunk`` span and the ``markov.walk.steps`` /
``markov.walk.absorbed`` counters into :mod:`repro.telemetry`.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from repro import telemetry
from repro.chunking import DEFAULT_CHUNK_SIZE, run_kernel, validate_sources
from repro.errors import GraphError
from repro.graph.core import Graph
from repro.graph.shard import ShardedGraph

__all__ = [
    "NO_HIT",
    "walk_block",
    "walk_endpoints",
    "walk_first_hits",
    "walk_visit_counts",
    "walk_cover_steps",
    "DEFAULT_CHUNK_SIZE",
]

#: Sentinel returned by :func:`walk_first_hits` / :func:`walk_cover_steps`
#: for walks that never reach the mask / never cover within the budget.
NO_HIT = -1

#: Uniform draws are generated in step-blocks of this many doubles per
#: walk, bounding the random-number working set at
#: ``O(chunk_size * _STEP_BLOCK)`` for open-ended budgets.  Block size
#: cannot affect results: doubles come off each walk's own stream in
#: step order regardless of how they are grouped into draws.
_STEP_BLOCK = 1024

_SeedLike = "int | np.random.SeedSequence | np.random.Generator"


def _streams(seed, num_walks: int) -> list[np.random.Generator]:
    """Spawn one independent child generator per walk.

    ``seed`` may be an int (reproducible root), a
    :class:`~numpy.random.SeedSequence` or a
    :class:`~numpy.random.Generator`; the latter two are *advanced* by
    the spawn, so successive calls draw fresh independent streams.
    """
    if isinstance(seed, np.random.Generator):
        return seed.spawn(num_walks)
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(int(seed))
    )
    return [np.random.default_rng(child) for child in root.spawn(num_walks)]


def _grouped_advance(store, states: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One walk step on several row blocks: each steps its own walks."""
    out = np.empty_like(states)
    owners = store.shard_index_of(states)
    for k in np.unique(owners):
        sel = np.flatnonzero(owners == k)
        out[sel] = store.shard(int(k)).advance(states[sel], u[sel])
    return out


def _setup(env) -> None:
    """Per-call kernel state: the one-step function over the store.

    A one-block store (every :class:`Graph`) skips the owner grouping,
    which costs ~3x on one block.
    """
    graph = env.graph
    if graph.num_shards == 1:
        env.advance = graph.shard(0).advance
    else:
        env.advance = partial(_grouped_advance, graph)
    env.num_nodes = graph.num_nodes


def _steps(env, columns: slice, streams, length: int):
    """Advance the chunk's walks ``length`` steps; yield ``(t, states)``.

    Uniforms are drawn per walk in step-blocks of :data:`_STEP_BLOCK`;
    a consumer that stops early simply draws no further blocks.
    """
    states = env.sources[columns]
    step = 0
    while step < length:
        count = min(_STEP_BLOCK, length - step)
        u = np.stack([g.random(count) for g in streams], axis=0)
        for t in range(count):
            states = env.advance(states, u[:, t])
            yield step + t + 1, states
        step += count


def _count(steps: int, absorbed: np.ndarray | None = None) -> None:
    tel = telemetry.current()
    tel.count("markov.walk.steps", steps)
    if absorbed is not None:
        tel.count("markov.walk.absorbed", int(np.count_nonzero(absorbed != NO_HIT)))


# ----------------------------------------------------------------------
# per-mode kernels (run by both backends of repro.chunking.run_kernel)
# ----------------------------------------------------------------------
def _block_kernel(columns: slice, env, streams) -> None:
    """Record every position of the chunk's walks into ``env.out``."""
    out = env.out[columns]
    out[:, 0] = env.sources[columns]
    for t, states in _steps(env, columns, streams, env.length):
        out[:, t] = states
    _count(out.shape[0] * env.length)


def _endpoints_kernel(columns: slice, env, streams) -> None:
    """Write the chunk's final states into ``env.out``."""
    states = env.sources[columns]
    for _, states in _steps(env, columns, streams, env.length):
        pass
    env.out[columns] = states
    _count(states.size * env.length)


def _first_hits_kernel(columns: slice, env, streams) -> None:
    """First step each walk stands on ``env.mask``; stops once all hit."""
    hits = np.full(columns.stop - columns.start, NO_HIT, dtype=np.int64)
    hits[env.mask[env.sources[columns]]] = 0
    alive = hits == NO_HIT
    steps = 0
    if alive.any():
        for t, states in _steps(env, columns, streams, env.length):
            steps += states.size
            newly = alive & env.mask[states]
            if newly.any():
                hits[newly] = t
                alive &= ~newly
                if not alive.any():
                    break
    env.out[columns] = hits
    _count(steps, hits)


def _visit_kernel(columns: slice, env, streams) -> np.ndarray:
    """Return the chunk's per-node visit counts (merged by the caller)."""
    n = env.num_nodes
    states = env.sources[columns]
    local = np.bincount(states, minlength=n)
    for _, states in _steps(env, columns, streams, env.length):
        local += np.bincount(states, minlength=n)
    _count(states.size * env.length)
    return local


def _cover_kernel(columns: slice, env, streams) -> None:
    """Step at which each walk has visited every node; stops once all do."""
    n = env.num_nodes
    states = env.sources[columns]
    k = states.size
    rows = np.arange(k)
    visited = np.zeros((k, n), dtype=bool)
    visited[rows, states] = True
    remaining = np.full(k, n - 1, dtype=np.int64)
    covered = np.full(k, 0 if n == 1 else NO_HIT, dtype=np.int64)
    alive = covered == NO_HIT
    steps = 0
    if alive.any():
        for t, states in _steps(env, columns, streams, env.max_steps):
            steps += k
            newly = alive & ~visited[rows, states]
            visited[rows[newly], states[newly]] = True
            remaining[newly] -= 1
            done = newly & (remaining == 0)
            if done.any():
                covered[done] = t
                alive &= ~done
                if not alive.any():
                    break
    env.out[columns] = covered
    _count(steps, covered)


def _run(
    name: str,
    kernel,
    graph: "Graph | ShardedGraph",
    chosen: np.ndarray,
    seed,
    inputs: dict,
    out: np.ndarray | None = None,
    merge=None,
) -> None:
    """Dispatch one walk mode over the chosen sources' seed streams."""
    tel = telemetry.current()
    with tel.span(f"markov.walk.{name}"):
        tel.count("markov.walk.walks", int(chosen.size))
        run_kernel(
            kernel,
            chosen.size,
            inputs={"graph": graph, "sources": chosen, **inputs},
            outputs=None if out is None else {"out": out},
            split={"streams": _streams(seed, chosen.size)},
            setup=_setup,
            merge=merge,
            span="markov.walk.chunk",
        )


def _check(graph, sources, length: int) -> np.ndarray:
    chosen = validate_sources(graph.num_nodes, sources)
    if length < 0:
        raise GraphError("length must be non-negative")
    return chosen


def walk_block(
    graph: Graph | ShardedGraph,
    sources: np.ndarray | Sequence[int],
    length: int,
    seed: _SeedLike = 0,
) -> np.ndarray:
    """Return one walk per source as a ``(len(sources), length + 1)`` block.

    Row ``i`` is a ``length``-step uniform random walk from
    ``sources[i]`` (column 0 is the source itself), driven by walk
    ``i``'s own seed stream — so the block is bit-identical for every
    schedule and to the per-walk oracle.
    """
    chosen = _check(graph, sources, length)
    out = np.empty((chosen.size, length + 1), dtype=np.int64)
    if chosen.size:
        _run("block", _block_kernel, graph, chosen, seed, {"length": length},
             out=out)
    return out


def walk_endpoints(
    graph: Graph | ShardedGraph,
    sources: np.ndarray | Sequence[int],
    length: int,
    seed: _SeedLike = 0,
) -> np.ndarray:
    """Return the ``length``-step endpoint of one walk per source.

    O(num_walks) memory: only the state vector advances — the mode the
    sampling defenses (SybilDefender calibration, SybilInfer traces,
    GateKeeper distributors, Whānau tables) need.
    """
    chosen = _check(graph, sources, length)
    out = np.empty(chosen.size, dtype=np.int64)
    if chosen.size:
        _run("endpoints", _endpoints_kernel, graph, chosen, seed,
             {"length": length}, out=out)
    return out


def walk_first_hits(
    graph: Graph | ShardedGraph,
    sources: np.ndarray | Sequence[int],
    length: int,
    mask: np.ndarray,
    seed: _SeedLike = 0,
) -> np.ndarray:
    """Return per walk the first step index at which it stands on ``mask``.

    Step 0 is the source itself; walks that never touch the mask within
    ``length`` steps report :data:`NO_HIT`.  This is the
    escape-probability / Monte-Carlo hitting-time primitive: ``mask``
    marks the absorbing region and ``first_hit <= w`` recovers the
    absorbed-by-``w`` indicator for any sub-budget ``w``.  A chunk
    whose walks have all been absorbed stops stepping early — absorbed
    walks' hit steps are final, and each walk only ever consumes its
    own stream.
    """
    chosen = _check(graph, sources, length)
    hit_mask = np.asarray(mask, dtype=bool)
    if hit_mask.shape != (graph.num_nodes,):
        raise GraphError(
            f"mask must have shape ({graph.num_nodes},), got {hit_mask.shape}"
        )
    out = np.empty(chosen.size, dtype=np.int64)
    if chosen.size:
        _run("first_hits", _first_hits_kernel, graph, chosen, seed,
             {"length": length, "mask": hit_mask}, out=out)
    return out


def walk_visit_counts(
    graph: Graph | ShardedGraph,
    sources: np.ndarray | Sequence[int],
    length: int,
    seed: _SeedLike = 0,
) -> np.ndarray:
    """Accumulate per-node visit counts over one walk per source.

    Every position (source included) of every walk counts, so
    ``counts.sum() == len(sources) * (length + 1)``.  Memory stays
    O(num_nodes) per chunk regardless of the sample count: each chunk's
    partial counts are added into the result as the chunk finishes
    (integer addition commutes, so scheduling cannot change the
    totals).
    """
    chosen = _check(graph, sources, length)
    counts = np.zeros(graph.num_nodes, dtype=np.int64)
    if chosen.size:
        _run("visit_counts", _visit_kernel, graph, chosen, seed,
             {"length": length},
             merge=lambda _, local: np.add(counts, local, out=counts))
    return counts


def walk_cover_steps(
    graph: Graph | ShardedGraph,
    sources: np.ndarray | Sequence[int],
    max_steps: int,
    seed: _SeedLike = 0,
) -> np.ndarray:
    """Return per walk the step at which it has visited every node.

    Walks that do not cover the graph within ``max_steps`` report
    :data:`NO_HIT`.  Visited state is a ``(chunk, n)`` boolean block;
    a chunk stops stepping once all of its walks have covered.
    """
    chosen = validate_sources(graph.num_nodes, sources)
    if max_steps < 1:
        raise GraphError("max_steps must be positive")
    out = np.empty(chosen.size, dtype=np.int64)
    if chosen.size:
        _run("cover_steps", _cover_kernel, graph, chosen, seed,
             {"max_steps": max_steps}, out=out)
    return out
