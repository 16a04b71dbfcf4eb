"""Streaming generators for multi-million-node mixing analogs.

The registry analogs (:mod:`repro.datasets.registry`) materialize a
full edge list in RAM, which caps them around 50k nodes.  This module
emits edges in bounded ``(k, 2)`` blocks instead, so
:meth:`repro.graph.shard.ShardedGraph.from_edge_blocks` can build
1M-10M-node graphs whose peak build memory is one shard bucket — the
full edge list never exists.

Two regimes mirror the paper's fast/slow mixing dichotomy:

* ``"fast"`` — a preferential-attachment-style analog: besides the
  connectivity path, each node ``u`` draws ``extra_edges_per_node``
  targets ``floor(u * r**attachment_exponent)`` (``r`` uniform), which
  concentrates attachments on early nodes (hubs) and mixes in
  ``O(log n)`` steps, the Wiki-vote/Epinions regime;
* ``"slow"`` — a path of tight communities: nodes mostly attach to
  earlier members of their own contiguous community and only a
  ``bridge_fraction`` of draws escape globally, reproducing the
  tight-knit-community slow mixing of the Physics/DBLP traces.

Determinism: block ``b`` is generated from
``SeedSequence([seed, b])`` regardless of how the iterator is
consumed, so a stream is fully described by
``(num_nodes, regime, seed, block_nodes, spec)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import DatasetError
from repro.graph.shard import ShardedGraph

__all__ = [
    "StreamSpec",
    "STREAM_REGIMES",
    "stream_analog_edges",
    "build_sharded_analog",
]

_DEFAULT_BLOCK_NODES = 1 << 16


@dataclass(frozen=True)
class StreamSpec:
    """Tunables of one streaming regime.

    ``extra_edges_per_node`` draws per node beyond the connectivity
    path; ``attachment_exponent`` skews global targets toward early
    nodes (hubs) — higher is more skewed; ``community_nodes`` is the
    contiguous community width of the slow regime (ignored by the fast
    one); ``bridge_fraction`` is the slow regime's probability that a
    draw escapes its community.
    """

    regime: str
    extra_edges_per_node: int = 8
    attachment_exponent: float = 3.0
    community_nodes: int = 4096
    bridge_fraction: float = 0.005


#: The two built-in regimes, mirroring the paper's mixing dichotomy.
STREAM_REGIMES: dict[str, StreamSpec] = {
    "fast": StreamSpec(regime="fast", attachment_exponent=3.0),
    "slow": StreamSpec(regime="slow", attachment_exponent=2.0),
}


def _resolve_spec(regime: str) -> StreamSpec:
    spec = STREAM_REGIMES.get(regime)
    if spec is None:
        raise DatasetError(
            f"unknown streaming regime {regime!r}; "
            f"use one of {sorted(STREAM_REGIMES)}"
        )
    return spec


def stream_analog_edges(
    num_nodes: int,
    regime: str = "fast",
    seed: int = 0,
    block_nodes: int = _DEFAULT_BLOCK_NODES,
) -> Iterator[np.ndarray]:
    """Yield the analog's edges as bounded ``(k, 2)`` int64 blocks.

    Every node ``u >= 1`` contributes the path edge ``(u - 1, u)``
    (guaranteeing connectivity) plus ``extra_edges_per_node`` random
    draws toward earlier nodes; self loops never occur by construction
    and duplicates are legal (the shard builder collapses them).  Block
    ``b`` covers nodes ``[b * block_nodes, (b + 1) * block_nodes)`` and
    is seeded independently, so the stream is deterministic and
    restartable per block.
    """
    if num_nodes < 1:
        raise DatasetError("num_nodes must be positive")
    if block_nodes < 1:
        raise DatasetError("block_nodes must be positive")
    spec = _resolve_spec(regime)
    for block_index, start in enumerate(range(0, num_nodes, block_nodes)):
        stop = min(start + block_nodes, num_nodes)
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), int(block_index)])
        )
        yield _generate_block(rng, start, stop, spec)


def _generate_block(
    rng: np.random.Generator, start: int, stop: int, spec: StreamSpec
) -> np.ndarray:
    nodes = np.arange(max(start, 1), stop, dtype=np.int64)
    path = np.stack([nodes - 1, nodes], axis=1)
    k = int(spec.extra_edges_per_node)
    sources = np.repeat(np.arange(start, stop, dtype=np.int64), k)
    draws = rng.random(sources.size)
    if spec.regime == "fast":
        targets = np.floor(
            sources * draws**spec.attachment_exponent
        ).astype(np.int64)
        valid = sources >= 1  # node 0 has no earlier target
    else:
        width = int(spec.community_nodes)
        community_lo = (sources // width) * width
        span = sources - community_lo
        local = community_lo + np.floor(span * draws).astype(np.int64)
        bridge_draws = rng.random(sources.size)
        global_targets = np.floor(
            sources * bridge_draws**spec.attachment_exponent
        ).astype(np.int64)
        is_bridge = rng.random(sources.size) < spec.bridge_fraction
        targets = np.where(is_bridge, global_targets, local)
        valid = np.where(is_bridge, sources >= 1, span > 0)
    extra = np.stack([targets[valid], sources[valid]], axis=1)
    return np.concatenate([path, extra], axis=0)


def build_sharded_analog(
    root: str | Path,
    num_nodes: int,
    regime: str = "fast",
    seed: int = 0,
    num_shards: int | None = None,
    nodes_per_shard: int | None = None,
    max_resident_shards: int | None = None,
) -> ShardedGraph:
    """Stream an analog directly into a sharded on-disk graph.

    The edge stream from :func:`stream_analog_edges`, at the default
    block size, feeds
    :meth:`~repro.graph.shard.ShardedGraph.from_edge_blocks`, so the
    full edge list never materializes; peak memory is one shard bucket
    plus the scatter buffers.
    """
    blocks = stream_analog_edges(num_nodes, regime=regime, seed=seed)
    return ShardedGraph.from_edge_blocks(
        blocks,
        num_nodes,
        root,
        num_shards=num_shards,
        nodes_per_shard=nodes_per_shard,
        max_resident_shards=max_resident_shards,
    )
