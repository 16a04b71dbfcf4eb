"""Trust-modulated random walks (Mohaisen, Hopper, Kim — INFOCOM 2011).

The paper observes (Section II) that mixing patterns track the trust
model of the underlying network, and cites the companion work that
*accounts for trust* in Sybil defenses by modulating the random walk:
instead of always moving, a walker at node v stays put with a per-node
"trust strictness" probability, modelling that strict-trust nodes are
reluctant to forward.  Formally,

    P'(v, v) = alpha_v
    P'(v, u) = (1 - alpha_v) / deg(v)    for u adjacent to v

With uniform alpha this is the alpha-lazy chain, whose spectral gap
shrinks by exactly (1 - alpha) — i.e. modulated defenses must lengthen
their walks by 1/(1 - alpha) to keep the same end-to-end guarantees.
This module builds modulated operators and measures that cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.chunking import sample_sources
from repro.errors import GraphError
from repro.graph.core import Graph
from repro.markov.batch import batched_tvd_profile
from repro.markov.transition import transition_matrix

__all__ = [
    "modulated_transition_matrix",
    "ModulatedOperator",
    "modulated_mixing_profile",
    "mixing_cost_of_trust",
]


def modulated_transition_matrix(
    graph: Graph, trust: float | np.ndarray
) -> sp.csr_matrix:
    """Return the trust-modulated transition matrix P'.

    ``trust`` is either one stay-probability for every node or a length-n
    array of per-node values in [0, 1).
    """
    n = graph.num_nodes
    alphas = np.full(n, float(trust)) if np.isscalar(trust) else np.asarray(
        trust, dtype=float
    )
    if alphas.shape != (n,):
        raise GraphError(f"trust must be scalar or an array of length {n}")
    if alphas.min() < 0.0 or alphas.max() >= 1.0:
        raise GraphError("trust values must lie in [0, 1)")
    base = transition_matrix(graph)
    move = sp.diags(1.0 - alphas) @ base
    stay = sp.diags(alphas)
    return (move + stay).tocsr()


@dataclass(frozen=True)
class ModulatedOperator:
    """A trust-modulated chain: its matrix and stationary distribution.

    Evolve it with :func:`repro.markov.batch.evolve_block` on
    :attr:`matrix`.  For uniform trust the stationary distribution is
    unchanged (the chain is a lazy version of the same reversible walk);
    for per-node trust it is re-derived from the detailed-balance
    weights ``deg(v) / (1 - alpha_v)``.
    """

    graph: Graph
    trust: np.ndarray
    matrix: sp.csr_matrix
    stationary: np.ndarray

    @classmethod
    def build(cls, graph: Graph, trust: float | np.ndarray) -> "ModulatedOperator":
        n = graph.num_nodes
        alphas = (
            np.full(n, float(trust)) if np.isscalar(trust) else np.asarray(trust, float)
        )
        matrix = modulated_transition_matrix(graph, alphas)
        degrees = graph.degrees.astype(float)
        weights = np.zeros(n)
        positive = degrees > 0
        weights[positive] = degrees[positive] / (1.0 - alphas[positive])
        if weights.sum() == 0:
            raise GraphError("modulated chain needs at least one edge")
        pi = weights / weights.sum()
        return cls(graph=graph, trust=alphas, matrix=matrix, stationary=pi)


def modulated_mixing_profile(
    graph: Graph,
    trust: float | np.ndarray,
    walk_lengths: list[int],
    num_sources: int = 50,
    seed: int = 0,
) -> np.ndarray:
    """Return mean TVD-to-stationary per walk length under modulation.

    The modulated analog of the Figure-1 measurement, run on the
    batched walk engine.
    """
    rng = np.random.default_rng(seed)
    sources = sample_sources(rng, graph.num_nodes, num_sources, "num_sources")
    operator = ModulatedOperator.build(graph, trust)
    tvd = batched_tvd_profile(
        operator.matrix, operator.stationary, sources, walk_lengths
    )
    return tvd.mean(axis=0)


def mixing_cost_of_trust(
    graph: Graph,
    trust_levels: list[float],
    epsilon: float = 0.1,
    max_length: int = 400,
    num_sources: int = 30,
    seed: int = 0,
) -> dict[float, int | None]:
    """Measure the walk length needed to reach ``epsilon`` TVD per trust level.

    Returns ``{alpha: T_alpha}`` with None when the chain has not mixed
    within ``max_length`` steps.  Theory predicts
    ``T_alpha ~ T_0 / (1 - alpha)``.
    """
    lengths = list(range(1, max_length + 1))
    out: dict[float, int | None] = {}
    for alpha in trust_levels:
        means = modulated_mixing_profile(
            graph, alpha, lengths, num_sources=num_sources, seed=seed
        )
        below = np.flatnonzero(means < epsilon)
        out[alpha] = int(lengths[below[0]]) if below.size else None
    return out
