"""Property tracking across dynamic-graph snapshots.

Answers the paper's open question operationally: given an evolving
graph, how do the trust-relevant properties (SLEM/mixing, core
structure, expansion) drift, and do defense assumptions keep holding?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.cores.statistics import core_structure
from repro.errors import GraphError
from repro.expansion.envelope import envelope_expansion
from repro.graph.core import Graph
from repro.mixing.spectral import slem
from repro.store import ArtifactStore, memoize

__all__ = ["SnapshotMetrics", "track_evolution"]


@dataclass(frozen=True)
class SnapshotMetrics:
    """Trust-relevant properties of one snapshot."""

    step: int
    num_nodes: int
    num_edges: int
    slem: float
    degeneracy: int
    max_cores: int
    mean_small_set_expansion: float

    @property
    def spectral_gap(self) -> float:
        """``1 - slem``; bigger means faster mixing."""
        return 1.0 - self.slem


def track_evolution(
    graph_sequence: Iterable[Graph],
    expansion_sources: int = 30,
    seed: int = 0,
    store: ArtifactStore | None = None,
) -> list[SnapshotMetrics]:
    """Measure every snapshot in an evolution sequence.

    Expansion is summarized as the mean expansion factor over envelopes
    of at most n/10 nodes (the regime Figures 3-4 show is
    discriminative).  ``store`` memoizes the
    per-snapshot SLEM/core/expansion measurements under each snapshot's
    content digest, so overlapping or replayed evolution sequences
    (e.g. sliding windows over the same history) only measure new
    snapshots.
    """
    out: list[SnapshotMetrics] = []
    for step, graph in enumerate(graph_sequence):
        if graph.num_nodes < 3 or graph.num_edges < 2:
            raise GraphError(f"snapshot {step} is too small to measure")
        structure = memoize(
            store, graph, "cores", {}, lambda graph=graph: core_structure(graph)
        )
        measurement = memoize(
            store,
            graph,
            "expansion",
            {"num_sources": expansion_sources, "seed": seed},
            lambda graph=graph: envelope_expansion(
                graph,
                num_sources=min(expansion_sources, graph.num_nodes),
                seed=seed,
            ),
        )
        small = measurement.set_sizes <= max(graph.num_nodes // 10, 1)
        factors = measurement.expansion_factors[small]
        out.append(
            SnapshotMetrics(
                step=step,
                num_nodes=graph.num_nodes,
                num_edges=graph.num_edges,
                slem=memoize(
                    store, graph, "slem", {}, lambda graph=graph: slem(graph)
                ),
                degeneracy=structure.degeneracy,
                max_cores=int(structure.num_cores.max()),
                mean_small_set_expansion=float(factors.mean()) if factors.size else 0.0,
            )
        )
    return out
