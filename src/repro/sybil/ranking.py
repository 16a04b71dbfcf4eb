"""Defense-induced node rankings (the Viswanath et al. view).

Viswanath, Post, Gummadi and Mislove (SIGCOMM 2010) — discussed in the
paper's related work — showed that the random-walk Sybil defenses all
reduce to *ranking nodes by how well-connected they are to the trusted
node*, then cutting the ranking at some size.  This module implements
that common core: the degree-normalized probability that a short random
walk from the trusted node lands on each node, plus utilities to compare
rankings and to cut them into accepted sets.
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
    "ranking_overlap",
    "ranking_correlation",
    "modulated_walk_ranking",
]


def _default_walk_length(graph: Graph, walk_length: int | None) -> int:
    length = (
        max(1, int(np.ceil(np.log2(graph.num_nodes))))
        if walk_length is None
        else walk_length
    )
    if length < 1:
        raise SybilDefenseError("walk_length must be positive")
    return length


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
    length = _default_walk_length(graph, walk_length)
    start = delta_block(graph.num_nodes, [trusted])
    landing = evolve_block(transition_matrix(graph, lazy=True), start, length)[:, 0]
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


def ranking_overlap(first: np.ndarray, second: np.ndarray, depth: int) -> float:
    """Return the fraction of shared nodes among both rankings' top ``depth``."""
    if depth < 1:
        raise SybilDefenseError("depth must be positive")
    top_a = set(ranking_order(first)[:depth].tolist())
    top_b = set(ranking_order(second)[:depth].tolist())
    return len(top_a & top_b) / depth


def ranking_correlation(first: np.ndarray, second: np.ndarray) -> float:
    """Return Spearman rank correlation between two score vectors."""
    if first.size != second.size or first.size < 2:
        raise SybilDefenseError("score vectors must match and have length >= 2")

    def ranks(values: np.ndarray) -> np.ndarray:
        order = np.argsort(values, kind="stable")
        out = np.empty(values.size)
        out[order] = np.arange(values.size)
        return out

    ra, rb = ranks(first), ranks(second)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra**2).sum() * (rb**2).sum())
    if denom == 0:
        return 0.0
    return float((ra * rb).sum() / denom)


def modulated_walk_ranking(
    graph: Graph,
    trusted: int,
    trust: float | np.ndarray,
    walk_length: int | None = None,
) -> np.ndarray:
    """Score nodes by a *trust-modulated* walk from the trusted node.

    The Mohaisen-Hopper-Kim (INFOCOM 2011) integration: modulating the
    walk with per-node stay probabilities slows diffusion across weak
    (low-trust) links, trading honest coverage for Sybil containment.
    Scores are landing probabilities normalized by the modulated chain's
    stationary distribution, so 1.0 means "as reachable as stationarity
    allows" under the given trust assignment.
    """
    from repro.mixing.trust import ModulatedOperator

    graph._check_node(trusted)
    length = _default_walk_length(graph, walk_length)
    operator = ModulatedOperator.build(graph, trust)
    landing = evolve_block(
        operator.matrix, delta_block(graph.num_nodes, [trusted]), length
    )[:, 0]
    scores = np.zeros(graph.num_nodes)
    positive = operator.stationary > 0
    scores[positive] = landing[positive] / operator.stationary[positive]
    return scores
