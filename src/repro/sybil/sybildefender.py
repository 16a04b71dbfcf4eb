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
from typing import Sequence

import numpy as np

from repro.errors import SybilDefenseError
from repro.graph.core import Graph
from repro.markov.walk_batch import walk_block, walk_endpoints

__all__ = ["SybilDefenderConfig", "SybilDefender"]

#: Suspects judged per grouped walk block by :meth:`SybilDefender.accepted_set`.
#: Each block holds ``num_walks`` walks per suspect, so 32 suspects keep
#: a block of ``32 * 60`` walks near 3 MB at the comparison's length.
_SUSPECT_BLOCK = 32


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

        The R walks from ``node`` use seed ``seed + 7919 * seed_offset +
        node``; the count equals ``node``'s entry in any grouped call of
        :meth:`frequent_hit_counts`.
        """
        return int(self.frequent_hit_counts([node], [seed_offset])[0])

    def frequent_hit_counts(
        self, nodes: Sequence[int], seed_offsets: Sequence[int]
    ) -> np.ndarray:
        """Return :meth:`frequent_hit_count` for each node, as one block.

        Every node's R walks advance together through one grouped
        :func:`~repro.markov.walk_block` call, one seed group per node,
        so each node keeps its own seed's walks.  The per-walk
        distinct-visit sets fall out of one row-wise sort (a node counts
        once per walk however often that walk revisits it), and one
        ``bincount`` keyed by group gives every node's visit tally.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        for node in nodes:
            self._graph._check_node(int(node))
        n, walks = self._graph.num_nodes, self._config.num_walks
        seeds = self._config.seed + 7919 * np.asarray(seed_offsets) + nodes
        block = walk_block(
            self._graph, np.repeat(nodes, walks), self._length, seed=seeds
        )
        ordered = np.sort(block, axis=1)
        first = np.ones_like(ordered, dtype=bool)
        first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        owner = np.repeat(np.arange(nodes.size) * n, walks)[:, None]
        visits = np.bincount((owner + ordered)[first], minlength=nodes.size * n)
        hits = visits.reshape(nodes.size, n) >= self._config.hit_threshold
        return np.count_nonzero(hits, axis=1)

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
        # the judge at offset 1, peer i at offset 2 + i, as one block
        samples = self.frequent_hit_counts(
            np.concatenate([[judge], peers]), np.arange(1, peers.size + 2)
        )
        center = float(np.median(samples))
        mad = float(np.median(np.abs(samples - center)))
        scale = 1.4826 * mad  # consistent with std under normality
        self._calibration = (center, max(scale, 1.0))
        return self._calibration

    def is_sybil(self, suspect: int, judge: int = 0) -> bool:
        """Judge one suspect (calibrating on first use)."""
        return bool(self._flagged([suspect], judge)[0])

    def accepted_set(
        self, judge: int, candidates: np.ndarray | list[int]
    ) -> np.ndarray:
        """Return the candidates NOT flagged as Sybil.

        Recalibrates on ``judge``, then judges the candidates in grouped
        blocks of at most :data:`_SUSPECT_BLOCK`, with the verdicts
        :meth:`is_sybil` gives one at a time.
        """
        self.calibrate(judge)
        chosen = np.asarray(candidates, dtype=np.int64).ravel()
        flagged = np.concatenate(
            [np.zeros(0, dtype=bool)]
            + [
                self._flagged(chosen[lo : lo + _SUSPECT_BLOCK], judge)
                for lo in range(0, chosen.size, _SUSPECT_BLOCK)
            ]
        )
        return chosen[~flagged]

    def _flagged(self, suspects, judge: int) -> np.ndarray:
        """Whether each suspect's statistic leaves the honest band."""
        if self._calibration is None:
            self.calibrate(judge)
        mean, std = self._calibration  # type: ignore[misc]
        statistics = self.frequent_hit_counts(
            suspects, np.full(len(suspects), 999)
        )
        return np.abs(statistics - mean) > self._config.tolerance * std
