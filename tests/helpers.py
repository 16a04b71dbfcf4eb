"""Graph builders and a partition score that only the tests use.

Verbatim copies of generators and helpers the library no longer ships,
so the tests that build their input graphs (or score a found partition)
with them keep the same graphs, bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.digraph import DiGraph
from repro.errors import GeneratorError, GraphError
from repro.graph import Graph, GraphBuilder


def erdos_renyi_gnm(num_nodes: int, num_edges: int, seed: int = 0) -> Graph:
    """Return a G(n, m) graph with exactly ``num_edges`` distinct edges."""
    if num_nodes < 0:
        raise GeneratorError("num_nodes must be non-negative")
    max_edges = num_nodes * (num_nodes - 1) // 2
    if not 0 <= num_edges <= max_edges:
        raise GeneratorError(f"num_edges must be in [0, {max_edges}]")
    rng = np.random.default_rng(seed)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < num_edges:
        u = int(rng.integers(num_nodes))
        v = int(rng.integers(num_nodes))
        if u == v:
            continue
        chosen.add((min(u, v), max(u, v)))
    return Graph.from_edges(sorted(chosen), num_nodes=num_nodes)


def stochastic_block_model(
    block_sizes: list[int],
    edge_probabilities: np.ndarray,
    seed: int = 0,
) -> Graph:
    """Return an SBM sample with the given block sizes and rate matrix.

    ``edge_probabilities[a][b]`` is the probability of an edge between a
    node in block ``a`` and a node in block ``b``; the matrix must be
    symmetric.
    """
    probs = np.asarray(edge_probabilities, dtype=float)
    k = len(block_sizes)
    if probs.shape != (k, k):
        raise GeneratorError("edge_probabilities must be a square matrix over blocks")
    if not np.allclose(probs, probs.T):
        raise GeneratorError("edge_probabilities must be symmetric")
    if probs.min() < 0.0 or probs.max() > 1.0:
        raise GeneratorError("edge probabilities must lie in [0, 1]")
    if any(size < 0 for size in block_sizes):
        raise GeneratorError("block sizes must be non-negative")
    rng = np.random.default_rng(seed)
    offsets = np.concatenate([[0], np.cumsum(block_sizes)])
    total = int(offsets[-1])
    builder = GraphBuilder(total)
    for a in range(k):
        for b in range(a, k):
            p = float(probs[a, b])
            if p <= 0.0:
                continue
            if a == b:
                size = block_sizes[a]
                pairs = np.argwhere(np.triu(np.ones((size, size), dtype=bool), 1))
                mask = rng.random(pairs.shape[0]) < p
                for u, v in pairs[mask] + offsets[a]:
                    builder.add_edge(int(u), int(v))
            else:
                rows = block_sizes[a]
                cols = block_sizes[b]
                mask = rng.random((rows, cols)) < p
                for u, v in np.argwhere(mask):
                    builder.add_edge(int(u + offsets[a]), int(v + offsets[b]))
    return builder.build()


def planted_partition(
    num_blocks: int,
    block_size: int,
    internal_probability: float,
    external_probability: float,
    seed: int = 0,
) -> Graph:
    """Return a planted-partition graph (equal blocks, two rates).

    A large ``internal/external`` ratio produces the community
    bottlenecks that slow a random walk's mixing.
    """
    if num_blocks < 1 or block_size < 1:
        raise GeneratorError("num_blocks and block_size must be positive")
    probs = np.full((num_blocks, num_blocks), external_probability, dtype=float)
    np.fill_diagonal(probs, internal_probability)
    return stochastic_block_model([block_size] * num_blocks, probs, seed=seed)


def random_digraph(num_nodes: int, num_arcs: int, seed: int = 0) -> DiGraph:
    """Return a uniform random simple digraph with exactly ``num_arcs`` arcs."""
    if num_nodes < 0:
        raise GeneratorError("num_nodes must be non-negative")
    max_arcs = num_nodes * (num_nodes - 1)
    if not 0 <= num_arcs <= max_arcs:
        raise GeneratorError(f"num_arcs must be in [0, {max_arcs}]")
    rng = np.random.default_rng(seed)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < num_arcs:
        u = int(rng.integers(num_nodes))
        v = int(rng.integers(num_nodes))
        if u != v:
            chosen.add((u, v))
    return DiGraph.from_arcs(sorted(chosen), num_nodes=num_nodes)


def relabeled(graph: Graph, permutation: Sequence[int]) -> Graph:
    """Return an isomorphic graph with node ``v`` renamed ``permutation[v]``.

    ``permutation`` must be a permutation of ``0 .. n-1``.
    """
    perm = np.asarray(list(permutation), dtype=np.int64)
    if perm.size != graph.num_nodes or not np.array_equal(
        np.sort(perm), np.arange(graph.num_nodes)
    ):
        raise GraphError("permutation must be a permutation of all node ids")
    if graph.num_edges == 0:
        return Graph.empty(graph.num_nodes)
    return Graph.from_edges(perm[graph.edge_array()], num_nodes=graph.num_nodes)


def normalized_mutual_information(first: np.ndarray, second: np.ndarray) -> float:
    """Return NMI between two labelings (1 = identical partitions)."""
    a = np.asarray(first, dtype=np.int64)
    b = np.asarray(second, dtype=np.int64)
    if a.size != b.size or a.size == 0:
        raise GraphError("labelings must be non-empty and equal length")
    n = a.size
    _, a_idx = np.unique(a, return_inverse=True)
    _, b_idx = np.unique(b, return_inverse=True)
    contingency = np.zeros((a_idx.max() + 1, b_idx.max() + 1))
    np.add.at(contingency, (a_idx, b_idx), 1.0)
    pa = contingency.sum(axis=1) / n
    pb = contingency.sum(axis=0) / n
    pab = contingency / n
    mutual = 0.0
    for i in range(pab.shape[0]):
        for j in range(pab.shape[1]):
            if pab[i, j] > 0:
                mutual += pab[i, j] * np.log(pab[i, j] / (pa[i] * pb[j]))
    entropy_a = -np.sum(pa[pa > 0] * np.log(pa[pa > 0]))
    entropy_b = -np.sum(pb[pb > 0] * np.log(pb[pb > 0]))
    if entropy_a == 0 or entropy_b == 0:
        return 1.0 if np.array_equal(a_idx, b_idx) else 0.0
    return float(mutual / np.sqrt(entropy_a * entropy_b))
