"""Envelope-based expansion measurement (Section III-D, Figures 3 and 4).

GateKeeper's analysis restricts the vertex-expansion definition (Eq. 3)
to *connected* sets: BFS balls ("envelopes") around a core node.  For a
core node c and radius i,

    Env_i = all nodes within distance i of c,
    Exp_i = the next BFS level L_{i+1},
    alpha_i = |L_{i+1}| / sum_{j <= i} |L_j|          (Eq. 4).

The paper lets *every* node act as the core, pools the (|S|, |N(S)|)
pairs over all sources and radii, and reports min/mean/max of |N(S)| per
unique |S| (Figure 3) and the average alpha per |S| (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chunking import sample_sources, validate_sources
from repro.errors import GraphError
from repro.graph.core import Graph
from repro.graph.traversal import bfs_level_sizes_block, bfs_levels

__all__ = [
    "SourceExpansion",
    "source_expansion",
    "ExpansionMeasurement",
    "envelope_expansion",
    "ExpansionSummary",
    "aggregate_by_set_size",
    "expansion_factor_series",
]


@dataclass(frozen=True)
class SourceExpansion:
    """Envelope expansion from a single core node.

    ``level_sizes[i] = |L_i|`` is the number of nodes at BFS distance
    exactly i; derived arrays give the envelope sizes and factors.
    """

    source: int
    level_sizes: np.ndarray

    @property
    def envelope_sizes(self) -> np.ndarray:
        """``|Env_i|`` for i = 0 .. eccentricity - 1 (sets with a nonempty
        frontier)."""
        return np.cumsum(self.level_sizes)[:-1]

    @property
    def frontier_sizes(self) -> np.ndarray:
        """``|Exp_i| = |L_{i+1}|`` aligned with :attr:`envelope_sizes`."""
        return self.level_sizes[1:]

    @property
    def expansion_factors(self) -> np.ndarray:
        """``alpha_i = |L_{i+1}| / |Env_i|`` (Eq. 4)."""
        return self.frontier_sizes / self.envelope_sizes


def source_expansion(graph: Graph, source: int) -> SourceExpansion:
    """Measure the BFS envelope expansion rooted at ``source``."""
    levels = bfs_levels(graph, source)
    sizes = np.array([lvl.size for lvl in levels], dtype=np.int64)
    return SourceExpansion(source=source, level_sizes=sizes)


@dataclass(frozen=True)
class ExpansionMeasurement:
    """Pooled (|S|, |N(S)|) pairs over sources and radii.

    ``set_sizes[j]`` and ``neighbor_counts[j]`` describe one envelope:
    its size and its frontier size.  ``sources`` records which core
    nodes were measured.
    """

    sources: np.ndarray
    set_sizes: np.ndarray
    neighbor_counts: np.ndarray

    @property
    def expansion_factors(self) -> np.ndarray:
        """Per-measurement alpha values."""
        return self.neighbor_counts / self.set_sizes

    def small_set_expansion(self, num_nodes: int) -> float:
        """Mean alpha over envelopes of at most ``num_nodes // 10`` nodes.

        The small-set regime Figures 3-4 show is discriminative; 0.0
        when no envelope is that small.  ``num_nodes`` is the measured
        graph's size.
        """
        small = self.set_sizes <= max(num_nodes // 10, 1)
        return float(self.expansion_factors[small].mean()) if small.any() else 0.0


def _cores(
    graph: Graph,
    sources: np.ndarray | list[int] | None,
    num_sources: int | None,
    max_radius: int | None,
    seed: int,
) -> np.ndarray:
    """Validate an expansion call; return its sorted distinct cores."""
    if graph.num_nodes == 0:
        raise GraphError("expansion of an empty graph is undefined")
    if max_radius is not None and max_radius < 1:
        raise GraphError(
            "max_radius must be at least 1 (a radius-0 envelope has no "
            "frontier to measure)"
        )
    if sources is not None:
        chosen = np.unique(validate_sources(graph.num_nodes, sources))
    elif num_sources is not None and num_sources < graph.num_nodes:
        rng = np.random.default_rng(seed)
        chosen = np.sort(
            sample_sources(rng, graph.num_nodes, num_sources, "num_sources")
        )
    else:
        chosen = np.arange(graph.num_nodes, dtype=np.int64)
    if chosen.size == 0:
        raise GraphError("at least one source is required")
    return chosen


def _measurement(
    chosen: np.ndarray, all_sizes: list[np.ndarray], all_neighbors: list[np.ndarray]
) -> ExpansionMeasurement:
    return ExpansionMeasurement(
        sources=chosen,
        set_sizes=np.concatenate(all_sizes) if all_sizes else np.empty(0, np.int64),
        neighbor_counts=(
            np.concatenate(all_neighbors) if all_neighbors else np.empty(0, np.int64)
        ),
    )


def envelope_expansion(
    graph: Graph,
    sources: np.ndarray | list[int] | None = None,
    num_sources: int | None = None,
    max_radius: int | None = None,
    seed: int = 0,
) -> ExpansionMeasurement:
    """Run the expansion measurement from many core nodes.

    All cores are measured at once through the block BFS engine
    (:func:`repro.graph.bfs_level_sizes_block`): one ``(s, L)``
    level-size matrix replaces ``s`` Python BFS runs, and bounding the
    measurement at ``max_radius`` stops the block BFS early instead of
    discarding deep levels afterwards.  The result is byte-identical to
    the one-BFS-per-core oracle in :mod:`repro.oracles` (same int64
    cumsum on the same level sizes).

    Parameters
    ----------
    sources:
        Explicit core nodes.  Default: every node (the paper's choice;
        O(n m) total), unless ``num_sources`` asks for a uniform sample.
        Out-of-range ids are rejected up front; duplicates are collapsed
        (each distinct core is measured exactly once) and the recorded
        ``sources`` are sorted, matching the mixing measurement's
        source handling.
    num_sources:
        Sample this many cores uniformly instead of using all nodes.
    max_radius:
        Optionally stop each BFS's bookkeeping at this envelope radius
        (must be >= 1: radius 0 would measure no envelope at all).
    """
    chosen = _cores(graph, sources, num_sources, max_radius, seed)
    level_sizes = bfs_level_sizes_block(graph, chosen, max_levels=max_radius)
    all_sizes: list[np.ndarray] = []
    all_neighbors: list[np.ndarray] = []
    for row in level_sizes:
        # level sets are contiguous: the levels end at the last nonzero
        # entry (row[0] is always 1, the source itself)
        sizes = row[: int(np.flatnonzero(row)[-1]) + 1]
        all_sizes.append(np.cumsum(sizes)[:-1])
        all_neighbors.append(sizes[1:])
    return _measurement(chosen, all_sizes, all_neighbors)


@dataclass(frozen=True)
class ExpansionSummary:
    """Per-unique-|S| aggregation of an :class:`ExpansionMeasurement`."""

    set_sizes: np.ndarray
    minimum: np.ndarray
    mean: np.ndarray
    maximum: np.ndarray
    count: np.ndarray


def aggregate_by_set_size(measurement: ExpansionMeasurement) -> ExpansionSummary:
    """Group |N(S)| by unique |S| and report min/mean/max (Figure 3)."""
    if measurement.set_sizes.size == 0:
        raise GraphError("measurement holds no envelopes to aggregate")
    order = np.argsort(measurement.set_sizes, kind="stable")
    sizes = measurement.set_sizes[order]
    neighbors = measurement.neighbor_counts[order].astype(float)
    unique, starts = np.unique(sizes, return_index=True)
    boundaries = np.append(starts, sizes.size)
    mins = np.minimum.reduceat(neighbors, starts)
    maxs = np.maximum.reduceat(neighbors, starts)
    sums = np.add.reduceat(neighbors, starts)
    counts = np.diff(boundaries)
    return ExpansionSummary(
        set_sizes=unique,
        minimum=mins,
        mean=sums / counts,
        maximum=maxs,
        count=counts.astype(np.int64),
    )


def expansion_factor_series(
    measurement: ExpansionMeasurement,
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(unique |S|, expected alpha)`` — the Figure 4 series.

    The expected expansion at a set size is the mean of
    ``|N(S)| / |S|`` over every envelope of that size.
    """
    summary = aggregate_by_set_size(measurement)
    return summary.set_sizes, summary.mean / summary.set_sizes
