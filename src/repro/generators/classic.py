"""Preferential-attachment graph models: Barabási–Albert and a
variable-attachment powerlaw-cluster model.

All generators take an explicit ``seed`` so dataset analogs and
experiments are reproducible run to run.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeneratorError
from repro.graph.builder import GraphBuilder
from repro.graph.core import Graph

__all__ = [
    "barabasi_albert",
    "powerlaw_cluster_mixed",
]


def _preferential_targets(
    rng: np.random.Generator, repeated: list[int], count: int, exclude: int
) -> list[int]:
    """Pick ``count`` distinct targets preferentially by degree."""
    targets: set[int] = set()
    while len(targets) < count:
        pick = repeated[int(rng.integers(len(repeated)))]
        if pick != exclude:
            targets.add(pick)
    return sorted(targets)


def barabasi_albert(num_nodes: int, attachment: int, seed: int = 0) -> Graph:
    """Return a Barabási–Albert preferential-attachment graph.

    Each arriving node attaches to ``attachment`` existing nodes chosen
    proportionally to degree.  Produces power-law degree tails like the
    online social networks in Table I, and mixes fast (no planted
    community bottlenecks).
    """
    if attachment < 1:
        raise GeneratorError("attachment must be at least 1")
    if num_nodes <= attachment:
        raise GeneratorError("num_nodes must exceed attachment")
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(num_nodes)
    repeated: list[int] = []
    # seed clique over the first (attachment + 1) nodes keeps early picks
    # well defined and the graph connected
    for u in range(attachment + 1):
        for v in range(u + 1, attachment + 1):
            builder.add_edge(u, v)
            repeated.extend((u, v))
    for new in range(attachment + 1, num_nodes):
        targets = _preferential_targets(rng, repeated, attachment, new)
        for t in targets:
            builder.add_edge(new, t)
            repeated.extend((new, t))
    return builder.build()


def powerlaw_cluster_mixed(
    num_nodes: int,
    min_attachment: int,
    max_attachment: int,
    attachment_exponent: float = 2.0,
    triad_probability: float = 0.0,
    seed: int = 0,
) -> Graph:
    """Return a preferential-attachment graph with *variable* attachment.

    Like Holme–Kim's powerlaw-cluster model (after each preferential
    attachment, with probability ``triad_probability`` the next link
    closes a triangle with a neighbor of the previous target), but each
    arriving node draws its link count from a power law
    ``P(d) ~ d**(-attachment_exponent)`` over
    ``[min_attachment, max_attachment]`` instead of using a constant.
    This reproduces the heavy low-degree tail of real social graphs, so
    the coreness distribution is spread over 1..k_max (the shape of the
    paper's Figure 2) rather than concentrated at a single value; the
    low-coreness periphery is also what lets slow-mixing community
    graphs fragment into multiple cores at high k (Figure 5 f-j).
    """
    if min_attachment < 1:
        raise GeneratorError("min_attachment must be at least 1")
    if max_attachment < min_attachment:
        raise GeneratorError("max_attachment must be >= min_attachment")
    if num_nodes <= max_attachment:
        raise GeneratorError("num_nodes must exceed max_attachment")
    if not 0.0 <= triad_probability <= 1.0:
        raise GeneratorError("triad_probability must be in [0, 1]")
    rng = np.random.default_rng(seed)
    support = np.arange(min_attachment, max_attachment + 1, dtype=float)
    weights = support**-attachment_exponent
    weights /= weights.sum()
    builder = GraphBuilder(num_nodes)
    repeated: list[int] = []
    adjacency: list[set[int]] = [set() for _ in range(num_nodes)]

    def link(u: int, v: int) -> None:
        builder.add_edge(u, v)
        adjacency[u].add(v)
        adjacency[v].add(u)
        repeated.extend((u, v))

    seed_size = max_attachment + 1
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            link(u, v)
    attachments = rng.choice(
        support.astype(np.int64), size=num_nodes, p=weights
    )
    for new in range(seed_size, num_nodes):
        wanted = int(attachments[new])
        added = 0
        last_target: int | None = None
        while added < wanted:
            close_triad = (
                last_target is not None
                and rng.random() < triad_probability
                and any(
                    w not in adjacency[new] and w != new
                    for w in adjacency[last_target]
                )
            )
            if close_triad:
                options = [
                    w
                    for w in adjacency[last_target]  # type: ignore[index]
                    if w != new and w not in adjacency[new]
                ]
                pick = options[int(rng.integers(len(options)))]
            else:
                pick = repeated[int(rng.integers(len(repeated)))]
                if pick == new or pick in adjacency[new]:
                    continue
            link(new, pick)
            last_target = pick
            added += 1
    return builder.build()
