"""Vectorized Monte-Carlo walk engine (the third block engine).

The dense-distribution engine (:mod:`repro.markov.batch`) and the BFS
engine (:mod:`repro.graph.bfs_batch`) cover algebraic evolution and
shortest-path levels; every *sampled* walk in the repo — escape
probability, SybilDefender/SybilInfer statistics, GateKeeper
distributor selection, Whānau table sampling, SybilFuse's trust
walks, the Monte-Carlo hitting-time estimator, link perturbation —
still needs actual random trajectories.  This module advances a
``(num_walks,)`` state vector one step per iteration with a single CSR
gather::

    next = indices[indptr[state] + floor(u * degree[state])]

instead of ``num_walks x length`` Python iterations, in four modes:

* :func:`walk_block` — full trajectories, ``(num_walks, length + 1)``;
* :func:`walk_endpoints` — endpoints only, O(num_walks) memory;
* :func:`walk_first_hits` — first step touching a node mask
  (:data:`NO_HIT` when a walk never does), the escape-probability and
  Monte-Carlo hitting-time primitive;
* :func:`walk_visit_counts` — per-node visit accumulation over every
  position (``np.bincount`` of :func:`walk_endpoints` is the empirical
  ``length``-step distribution).

Every mode steps through :meth:`repro.graph.shard.Shard.advance` on the
graph's row blocks, so in-RAM and sharded walks are the same bits.

**Seed discipline: one counter-based draw rule.**  ``seed`` is an int
or a :class:`numpy.random.SeedSequence` and keys one
:class:`numpy.random.Philox` stream, with ``key(seed) =
SeedSequence(seed).generate_state(2, uint64)`` (what ``Philox(seed)``
itself uses).  With ``B = min(_STEP_BLOCK, length rounded up to 4)``,
walk ``w``'s step-``t`` uniform is the double at position::

    (t // B) * 2**128  +  w * B  +  t % B

of that stream: each step block is its own ``2**128``-double stretch of
the stream, laid out walk-major.  A chunk starting at walk ``s`` draws
its ``(walks, B)`` block with one counter jump and one ``random`` call,
and a walk's uniforms are a pure function of ``(seed, w, t)`` — there
is no per-walk stream.  ``seed`` may also be a sequence of such seeds,
one per equal, contiguous group of sources: group ``g``'s walks use
``key(seed[g])`` and are numbered from 0 within the group, so a walk's
bits do not depend on which groups ride along.  Results are therefore
**bit-identical** for every schedule the ambient
:func:`repro.parallel.execution` scope sets (``chunk_size`` x
``workers``, on both backends of :func:`repro.chunking.run_kernel`),
for every grouping, and to the per-walk oracles of
:mod:`repro.oracles` — the property the equivalence suite pins.  Each
mode is one module-level kernel; every chunk reports a
``markov.walk.chunk`` span and the ``markov.walk.steps`` /
``markov.walk.absorbed`` counters into :mod:`repro.telemetry`.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Sequence

import numpy as np

from repro import telemetry
from repro.chunking import run_kernel, validate_sources
from repro.errors import GraphError
from repro.graph.core import Graph
from repro.graph.shard import ShardedGraph

__all__ = [
    "NO_HIT",
    "walk_block",
    "walk_endpoints",
    "walk_first_hits",
    "walk_visit_counts",
]

#: Sentinel returned by :func:`walk_first_hits` for walks that never
#: reach the mask within the budget.
NO_HIT = -1

#: Uniform draws come in step blocks of at most this many doubles per
#: walk, bounding the random-number working set at
#: ``O(walks per chunk * _STEP_BLOCK)`` for open-ended budgets.  It is
#: part of the draw rule: changing it changes every walk longer than it.
_STEP_BLOCK = 1024

#: Uniforms per chunk (2 MB of doubles) when no ambient ``chunk_size``
#: is set: a walk mode's default chunk is ``_CHUNK_UNIFORMS // B`` walks.
_CHUNK_UNIFORMS = 1 << 18

_Seed = "int | np.random.SeedSequence"
_SeedLike = "int | np.random.SeedSequence | Sequence[int | np.random.SeedSequence]"


def _step_block(length: int) -> int:
    """``B``: a walk's uniforms per step block, a multiple of 4 (a Philox
    counter step yields 4 doubles, so every walk's row starts on one)."""
    return min(_STEP_BLOCK, max(4, -(-length // 4) * 4))


def _key(seed: _Seed) -> np.ndarray:
    if not isinstance(seed, np.random.SeedSequence):
        try:
            seed = np.random.SeedSequence(operator.index(seed))
        except TypeError:
            raise GraphError(
                "seed must be an int, a SeedSequence or a sequence of them, "
                f"got {type(seed).__name__}"
            ) from None
    return seed.generate_state(2, np.uint64)


def _keys(seed: _SeedLike, num_walks: int) -> tuple[np.ndarray, int]:
    """Return the groups' ``(groups, 2)`` Philox keys and the group size."""
    seeds = [seed] if np.ndim(seed) == 0 else list(seed)
    if not seeds or num_walks % len(seeds):
        raise GraphError(
            f"{num_walks} sources do not split into {len(seeds)} equal "
            "seed groups"
        )
    return np.stack([_key(s) for s in seeds]), num_walks // len(seeds)


def _draws(env, columns: slice, j: int) -> np.ndarray:
    """The chunk's ``(walks, B)`` uniforms of step block ``j``: one counter
    jump and one ``random`` call per seed group the chunk spans."""
    block, rows, lo = env.block, [], columns.start
    while lo < columns.stop:
        g, w = divmod(lo, env.group)
        hi = min(columns.stop, lo - w + env.group)
        position = (j << 128) + w * block
        bits = np.random.Philox(key=env.keys[g], counter=position // 4)
        rows.append(np.random.Generator(bits).random((hi - lo, block)))
        lo = hi
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


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


def _steps(env, columns: slice, length: int):
    """Advance the chunk's walks ``length`` steps; yield ``(t, states)``.

    Uniforms come one step block at a time (:func:`_draws`); a consumer
    that stops early simply draws no further blocks.
    """
    states = env.sources[columns]
    for j, lo in enumerate(range(0, length, env.block)):
        u = _draws(env, columns, j)
        for t in range(min(env.block, length - lo)):
            states = env.advance(states, u[:, t])
            yield lo + t + 1, states


def _count(steps: int, absorbed: np.ndarray | None = None) -> None:
    tel = telemetry.current()
    tel.count("markov.walk.steps", steps)
    if absorbed is not None:
        tel.count("markov.walk.absorbed", int(np.count_nonzero(absorbed != NO_HIT)))


# ----------------------------------------------------------------------
# per-mode kernels (run by both backends of repro.chunking.run_kernel)
# ----------------------------------------------------------------------
def _block_kernel(columns: slice, env) -> None:
    """Record every position of the chunk's walks into ``env.out``."""
    out = env.out[columns]
    out[:, 0] = env.sources[columns]
    for t, states in _steps(env, columns, env.length):
        out[:, t] = states
    _count(out.shape[0] * env.length)


def _endpoints_kernel(columns: slice, env) -> None:
    """Write the chunk's final states into ``env.out``."""
    states = env.sources[columns]
    for _, states in _steps(env, columns, env.length):
        pass
    env.out[columns] = states
    _count(states.size * env.length)


def _first_hits_kernel(columns: slice, env) -> None:
    """First step each walk stands on ``env.mask``; stops once all hit."""
    hits = np.full(columns.stop - columns.start, NO_HIT, dtype=np.int64)
    hits[env.mask[env.sources[columns]]] = 0
    alive = hits == NO_HIT
    steps = 0
    if alive.any():
        for t, states in _steps(env, columns, env.length):
            steps += states.size
            newly = alive & env.mask[states]
            if newly.any():
                hits[newly] = t
                alive &= ~newly
                if not alive.any():
                    break
    env.out[columns] = hits
    _count(steps, hits)


def _visit_kernel(columns: slice, env) -> np.ndarray:
    """Return the chunk's per-node visit counts (merged by the caller)."""
    n = env.num_nodes
    states = env.sources[columns]
    local = np.bincount(states, minlength=n)
    for _, states in _steps(env, columns, env.length):
        local += np.bincount(states, minlength=n)
    _count(states.size * env.length)
    return local


def _run(
    name: str,
    kernel,
    graph: "Graph | ShardedGraph",
    chosen: np.ndarray,
    draw: tuple[np.ndarray, int],
    length: int,
    inputs: dict,
    out: np.ndarray | None = None,
    merge=None,
) -> None:
    """Dispatch one walk mode over the chosen sources under the draw rule."""
    keys, group = draw
    block = _step_block(length)
    tel = telemetry.current()
    with tel.span(f"markov.walk.{name}"):
        tel.count("markov.walk.walks", int(chosen.size))
        run_kernel(
            kernel,
            chosen.size,
            inputs={
                "graph": graph, "sources": chosen, "length": length,
                "keys": keys, "group": group, "block": block, **inputs,
            },
            outputs=None if out is None else {"out": out},
            setup=_setup,
            merge=merge,
            span="markov.walk.chunk",
            default_chunk=_CHUNK_UNIFORMS // block,
        )


def _check(graph, sources, length: int, seed: _SeedLike):
    """The validated sources and their seed groups' keys (:func:`_keys`)."""
    chosen = validate_sources(graph.num_nodes, sources)
    if length < 0:
        raise GraphError("length must be non-negative")
    return chosen, _keys(seed, chosen.size)


def walk_block(
    graph: Graph | ShardedGraph,
    sources: np.ndarray | Sequence[int],
    length: int,
    seed: _SeedLike = 0,
) -> np.ndarray:
    """Return one walk per source as a ``(len(sources), length + 1)`` block.

    Row ``i`` is a ``length``-step uniform random walk from
    ``sources[i]`` (column 0 is the source itself), driven by walk
    ``i``'s uniforms under the draw rule (module docstring) — so the
    block is bit-identical for every schedule and grouping and to the
    per-walk oracle.  ``seed`` is an int, a
    :class:`~numpy.random.SeedSequence`, or a sequence of them with one
    seed per equal, contiguous group of sources.
    """
    chosen, draw = _check(graph, sources, length, seed)
    out = np.empty((chosen.size, length + 1), dtype=np.int64)
    if chosen.size:
        _run("block", _block_kernel, graph, chosen, draw, length, {}, out=out)
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
    chosen, draw = _check(graph, sources, length, seed)
    out = np.empty(chosen.size, dtype=np.int64)
    if chosen.size:
        _run("endpoints", _endpoints_kernel, graph, chosen, draw, length, {},
             out=out)
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
    walks' hit steps are final, and a walk's uniforms depend only on
    its seed, its number and the step.
    """
    chosen, draw = _check(graph, sources, length, seed)
    hit_mask = np.asarray(mask, dtype=bool)
    if hit_mask.shape != (graph.num_nodes,):
        raise GraphError(
            f"mask must have shape ({graph.num_nodes},), got {hit_mask.shape}"
        )
    out = np.empty(chosen.size, dtype=np.int64)
    if chosen.size:
        _run("first_hits", _first_hits_kernel, graph, chosen, draw, length,
             {"mask": hit_mask}, out=out)
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
    chosen, draw = _check(graph, sources, length, seed)
    counts = np.zeros(graph.num_nodes, dtype=np.int64)
    if chosen.size:
        _run("visit_counts", _visit_kernel, graph, chosen, draw, length, {},
             merge=lambda _, local: np.add(counts, local, out=counts))
    return counts
