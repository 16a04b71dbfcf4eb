"""SybilDefender: per-suspect judgment by walk revisit frequency.

Wei, Xu, Tan and Li (INFOCOM 2012 / TPDS 2013).  The observation: short
random walks *from a Sybil node* are trapped behind the attack-edge cut,
so they revisit the same small set of nodes far more often than walks
from an honest node, which disperse through the fast-mixing honest
region.  The identification routine:

1. from the suspect, run ``R`` random walks of length ``l``;
2. count how many distinct nodes were hit at least ``t`` times — the
   *frequent-hit count*.  A trapped (Sybil) walker deviates from the
   honest baseline: above it when the walk length sits between the
   Sybil region's and the honest region's mixing times (revisits pile
   up inside the trap), below it at longer lengths (the split walk
   covers fewer honest hubs frequently);
3. compare against a baseline calibrated on a known-honest judge node:
   a suspect whose frequent-hit count deviates from the honest mean by
   more than ``tolerance`` standard deviations — in either direction —
   is flagged Sybil.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SybilDefenseError
from repro.graph.core import Graph
from repro.markov.walk_batch import walk_block, walk_endpoints

__all__ = ["SybilDefenderConfig", "SybilDefender"]


@dataclass(frozen=True)
class SybilDefenderConfig:
    """SybilDefender parameters.

    ``num_walks`` walks of length ``max(2, ceil(20 log2 n))`` run from
    each suspect; ``hit_threshold`` is the minimum visit count for a
    node to count as "frequently hit"; ``tolerance`` is how many
    standard deviations below the honest calibration a suspect may
    fall before being flagged.
    """

    num_walks: int = 60
    hit_threshold: int = 5
    calibration_samples: int = 20
    tolerance: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_walks < 1:
            raise SybilDefenseError("num_walks must be positive")
        if self.hit_threshold < 1:
            raise SybilDefenseError("hit_threshold must be positive")
        if self.calibration_samples < 2:
            raise SybilDefenseError("calibration needs at least 2 samples")
        if self.tolerance <= 0:
            raise SybilDefenseError("tolerance must be positive")


class SybilDefender:
    """Revisit-frequency Sybil identification."""

    def __init__(self, graph: Graph, config: SybilDefenderConfig | None = None) -> None:
        if graph.num_nodes < 4:
            raise SybilDefenseError("SybilDefender needs at least 4 nodes")
        self._graph = graph
        self._config = config or SybilDefenderConfig()
        # well past the honest region's O(log n) mixing time so the
        # dispersal statistic separates (the paper tunes l per graph)
        self._length = max(2, int(np.ceil(20 * np.log2(graph.num_nodes))))
        self._calibration: tuple[float, float] | None = None

    @property
    def graph(self) -> Graph:
        """The social graph."""
        return self._graph

    @property
    def walk_length(self) -> int:
        """Per-walk length l."""
        return self._length

    def frequent_hit_count(self, node: int, seed_offset: int = 0) -> int:
        """Return the suspect statistic: nodes hit >= t times by R walks.

        All R walks advance as one block through the vectorized engine;
        the per-walk distinct-visit sets fall out of one row-wise sort
        (a node counts once per walk however often that walk revisits
        it).
        """
        self._graph._check_node(node)
        block = walk_block(
            self._graph,
            np.full(self._config.num_walks, node, dtype=np.int64),
            self._length,
            seed=self._config.seed + 7919 * seed_offset + node,
        )
        ordered = np.sort(block, axis=1)
        first = np.ones_like(ordered, dtype=bool)
        first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        visits = np.bincount(ordered[first], minlength=self._graph.num_nodes)
        return int(np.count_nonzero(visits >= self._config.hit_threshold))

    def calibrate(self, judge: int) -> tuple[float, float]:
        """Calibrate the honest baseline around a known-honest judge.

        Samples the statistic from the judge and walk-reachable peers.
        Some sampled peers may themselves be Sybils (the walks can cross
        the attack cut), so the baseline uses the **median** and the
        MAD-derived robust scale rather than mean/std — a minority of
        contaminated samples then cannot widen the acceptance band.
        Returns ``(center, scale)``.
        """
        self._graph._check_node(judge)
        peers = walk_endpoints(
            self._graph,
            np.full(
                self._config.calibration_samples - 1, judge, dtype=np.int64
            ),
            self._length,
            seed=self._config.seed + 13,
        )
        samples = [self.frequent_hit_count(judge, seed_offset=1)]
        for i, peer in enumerate(peers):
            samples.append(self.frequent_hit_count(int(peer), seed_offset=2 + i))
        center = float(np.median(samples))
        mad = float(np.median(np.abs(np.asarray(samples) - center)))
        scale = 1.4826 * mad  # consistent with std under normality
        self._calibration = (center, max(scale, 1.0))
        return self._calibration

    def is_sybil(self, suspect: int, judge: int = 0) -> bool:
        """Judge one suspect (calibrating on first use)."""
        if self._calibration is None:
            self.calibrate(judge)
        mean, std = self._calibration  # type: ignore[misc]
        statistic = self.frequent_hit_count(suspect, seed_offset=999)
        return abs(statistic - mean) > self._config.tolerance * std

    def accepted_set(
        self, judge: int, candidates: np.ndarray | list[int]
    ) -> np.ndarray:
        """Return the candidates NOT flagged as Sybil."""
        self.calibrate(judge)
        return np.array(
            [int(c) for c in candidates if not self.is_sybil(int(c), judge)],
            dtype=np.int64,
        )
