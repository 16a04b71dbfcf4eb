"""Property tracking across dynamic-graph snapshots.

Answers the paper's open question operationally: given an evolving
graph, how do the trust-relevant properties (SLEM/mixing, core
structure, expansion) drift, and do defense assumptions keep holding?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import GraphError
from repro.graph.core import Graph
from repro.pipeline import cores_stage, expansion_stage, measure, slem_stage
from repro.store import ArtifactStore

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
    discriminative).  ``store`` memoizes the per-snapshot core,
    expansion and SLEM measurements (the ``cores``, ``expansion`` and
    ``slem`` stages of :mod:`repro.pipeline`) under each snapshot's
    content digest, so overlapping or replayed evolution sequences
    (e.g. sliding windows over the same history) only measure new
    snapshots, and entries other callers wrote for the same graph with
    the same parameters are reused.
    """
    out: list[SnapshotMetrics] = []
    for step, graph in enumerate(graph_sequence):
        if graph.num_nodes < 3 or graph.num_edges < 2:
            raise GraphError(f"snapshot {step} is too small to measure")
        structure = measure(store, graph, cores_stage())
        measurement = measure(store, graph, expansion_stage(expansion_sources, seed))
        out.append(
            SnapshotMetrics(
                step=step,
                num_nodes=graph.num_nodes,
                num_edges=graph.num_edges,
                slem=measure(store, graph, slem_stage()),
                degeneracy=structure.degeneracy,
                max_cores=int(structure.num_cores.max()),
                mean_small_set_expansion=measurement.small_set_expansion(
                    graph.num_nodes
                ),
            )
        )
    return out
