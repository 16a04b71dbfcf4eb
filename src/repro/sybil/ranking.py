"""Defense-induced node rankings (the Viswanath et al. view).

Viswanath, Post, Gummadi and Mislove (SIGCOMM 2010) — discussed in the
paper's related work — showed that the random-walk Sybil defenses all
reduce to *ranking nodes by how well-connected they are to the trusted
node*, then cutting the ranking at some size.  This module implements
that common core: the degree-normalized probability that a short random
walk from the trusted node lands on each node, plus the rule that
orders a ranking and the cut that turns it into an accepted set.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SybilDefenseError
from repro.graph.core import Graph
from repro.markov.batch import delta_block, evolve_block
from repro.markov.transition import transition_matrix

__all__ = [
    "walk_probability_ranking",
    "ranking_order",
    "accept_top",
]


def walk_probability_ranking(
    graph: Graph, trusted: int, walk_length: int | None = None
) -> np.ndarray:
    """Score nodes by degree-normalized landing probability.

    Evolves a delta distribution at ``trusted`` for ``walk_length``
    steps of the lazy walk (default ``ceil(log2 n)``, the
    early-terminated walk all the ranking-style defenses use) and
    divides by degree; under the stationary distribution every node
    would score equally, so scores below the uniform level mark
    poorly-connected (Sybil-suspect) nodes.  On the plain walk this
    score is SybilRank's ``normalized`` trust from the one seed
    ``trusted`` (:class:`~repro.sybil.SybilRank`).
    """
    graph._check_node(trusted)
    if walk_length is None:
        walk_length = max(1, int(np.ceil(np.log2(graph.num_nodes))))
    if walk_length < 1:
        raise SybilDefenseError("walk_length must be positive")
    start = delta_block(graph.num_nodes, [trusted])
    landing = evolve_block(
        transition_matrix(graph, lazy=True), start, walk_length
    )[:, 0]
    degrees = graph.degrees.astype(float)
    scores = np.zeros(graph.num_nodes)
    positive = degrees > 0
    scores[positive] = landing[positive] / degrees[positive]
    return scores


def ranking_order(scores: np.ndarray) -> np.ndarray:
    """Return node ids sorted by decreasing score (ties by id)."""
    return np.lexsort((np.arange(scores.size), -scores)).astype(np.int64)


def accept_top(scores: np.ndarray, count: int) -> np.ndarray:
    """Accept the ``count`` best-ranked nodes."""
    if not 0 <= count <= scores.size:
        raise SybilDefenseError("count out of range")
    return np.sort(ranking_order(scores)[:count])
