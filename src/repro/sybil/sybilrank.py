"""SybilRank: fake-account detection by early-terminated trust power
iteration (Cao, Sirivianos, Yang, Pregueiro — NSDI 2012).

The production descendant of the ranking view of Sybil defenses: seed
trust at a few verified honest nodes, propagate it along the social
graph for ``O(log n)`` power-iteration steps (crucially *early
terminated*, before trust leaks across the attack cut equilibrates),
then rank accounts by degree-normalized trust.  The bottom of the
ranking is handed to human review in production; here the cutoff is an
explicit parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SybilDefenseError
from repro.graph.core import Graph
from repro.markov.batch import evolve_block
from repro.sybil.ranking import accept_top, ranking_order

__all__ = ["SybilRankConfig", "SybilRankResult", "SybilRank"]


@dataclass(frozen=True)
class SybilRankConfig:
    """SybilRank parameters.

    ``num_iterations`` defaults (None) to ``ceil(log2 n)`` — the early
    termination that gives the method its Sybil resistance.
    """

    num_iterations: int | None = None
    total_trust: float = 1.0

    def __post_init__(self) -> None:
        if self.num_iterations is not None and self.num_iterations < 1:
            raise SybilDefenseError("num_iterations must be positive")
        if self.total_trust <= 0:
            raise SybilDefenseError("total_trust must be positive")


@dataclass(frozen=True)
class SybilRankResult:
    """Degree-normalized trust scores plus the ranking they induce."""

    trust: np.ndarray
    normalized: np.ndarray

    def ranking(self) -> np.ndarray:
        """Node ids ranked most-trusted first (ties by id)."""
        return ranking_order(self.normalized)

    def accepted(self, count: int) -> np.ndarray:
        """Accept the ``count`` most-trusted nodes."""
        return accept_top(self.normalized, count)


class SybilRank:
    """Early-terminated trust propagation over a fixed graph."""

    def __init__(self, graph: Graph, config: SybilRankConfig | None = None) -> None:
        if graph.num_nodes < 3:
            raise SybilDefenseError("SybilRank needs at least 3 nodes")
        self._graph = graph
        self._config = config or SybilRankConfig()
        self._iterations = self._config.num_iterations or max(
            1, int(np.ceil(np.log2(graph.num_nodes)))
        )

    @property
    def graph(self) -> Graph:
        """The social graph."""
        return self._graph

    @property
    def num_iterations(self) -> int:
        """The early-termination step count."""
        return self._iterations

    def run(self, seeds: list[int] | np.ndarray) -> SybilRankResult:
        """Propagate trust from the verified ``seeds``.

        Total trust is split evenly over the seeds, spread by the
        graph's plain walk for the configured iterations, then
        degree-normalized (so high-degree nodes cannot hoard trust).
        """
        seed_array = np.unique(np.asarray(list(seeds), dtype=np.int64))
        if seed_array.size == 0:
            raise SybilDefenseError("at least one trust seed is required")
        if seed_array[0] < 0 or seed_array[-1] >= self._graph.num_nodes:
            raise SybilDefenseError("trust seeds must be valid node ids")
        trust = np.zeros((self._graph.num_nodes, 1))
        trust[seed_array] = self._config.total_trust / seed_array.size
        trust = evolve_block(self._graph, trust, self._iterations)[:, 0]
        degrees = self._graph.degrees.astype(float)
        normalized = np.zeros_like(trust)
        positive = degrees > 0
        normalized[positive] = trust[positive] / degrees[positive]
        return SybilRankResult(trust=trust, normalized=normalized)
