"""Sampled mixing-time measurement (the paper's Figure 1 method).

Instead of summarizing the whole graph by the single poorest-mixing
source (which is what the SLEM bound captures), the sampling method of
Mohaisen et al. (IMC 2010) picks random source vertices, evolves the
delta distribution at each source for ``t = 1, 2, ...`` steps, and
records the total variation distance to the stationary distribution.
Figure 1 plots the mean TVD across sources against walk length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chunking import sample_sources, validate_sources
from repro.errors import GraphError
from repro.graph.core import Graph
from repro.graph.shard import ShardedGraph
from repro.markov.batch import batched_tvd_profile, validate_walk_lengths
from repro.markov.transition import stationary_distribution, transition_matrix

__all__ = [
    "MixingProfile",
    "sampled_mixing_profile",
    "mixing_time_from_profile",
    "sampled_mixing_time",
    "is_fast_mixing",
]


@dataclass(frozen=True)
class MixingProfile:
    """TVD-vs-walk-length measurement over sampled sources.

    Attributes
    ----------
    walk_lengths:
        The evaluated walk lengths ``t`` (ascending).
    sources:
        The sampled source vertices.
    tvd:
        Matrix of shape ``(len(sources), len(walk_lengths))``;
        ``tvd[s, t]`` is the TVD of source ``s``'s ``walk_lengths[t]``-step
        distribution from stationary.
    """

    walk_lengths: np.ndarray
    sources: np.ndarray
    tvd: np.ndarray
    lazy: bool = field(default=False)

    @property
    def mean(self) -> np.ndarray:
        """Mean TVD per walk length across sources (the Figure-1 curve)."""
        return self.tvd.mean(axis=0)

    @property
    def max(self) -> np.ndarray:
        """Worst-source TVD per walk length (the Eq.-2 maximization)."""
        return self.tvd.max(axis=0)

    @property
    def min(self) -> np.ndarray:
        """Best-source TVD per walk length."""
        return self.tvd.min(axis=0)

    def percentile(self, q: float) -> np.ndarray:
        """Return the ``q``-th percentile TVD per walk length."""
        return np.percentile(self.tvd, q, axis=0)


def _profile_inputs(
    graph: Graph | ShardedGraph,
    walk_lengths: np.ndarray | list[int] | None,
    num_sources: int,
    sources: np.ndarray | list[int] | None,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Validated walk lengths and the sorted measured sources."""
    if graph.num_nodes < 2:
        raise GraphError("mixing measurement needs at least 2 nodes")
    lengths = validate_walk_lengths(
        np.arange(1, 51, dtype=np.int64) if walk_lengths is None else walk_lengths
    )
    rng = np.random.default_rng(seed)
    if sources is None:
        chosen = sample_sources(rng, graph.num_nodes, num_sources, "num_sources")
    else:
        chosen = validate_sources(graph.num_nodes, sources)
        if chosen.size == 0:
            raise GraphError("sources must be non-empty")
    return lengths, np.sort(chosen)


def sampled_mixing_profile(
    graph: Graph | ShardedGraph,
    walk_lengths: np.ndarray | list[int] | None = None,
    num_sources: int = 100,
    sources: np.ndarray | list[int] | None = None,
    lazy: bool = False,
    seed: int = 0,
) -> MixingProfile:
    """Measure TVD-to-stationary for sampled sources and walk lengths.

    All sources evolve as dense column blocks in single sparse x dense
    products (:func:`repro.markov.batch.batched_tvd_profile`),
    byte-identical to the one-matvec-per-source oracle in
    :mod:`repro.oracles`.  The plain walk streams the graph's row
    blocks, so any graph store works, in RAM or sharded.

    Parameters
    ----------
    graph:
        Graph to measure; should be connected (use the LCC otherwise).
    walk_lengths:
        Walk lengths to record, strictly increasing.  Defaults to
        ``1 .. 50`` (the x-range of the paper's Figure 1).  Length ``0``
        is allowed and records the TVD of the source delta itself.
    num_sources:
        Number of uniformly sampled sources when ``sources`` is None.
        The paper uses 100 random sources.
    sources:
        Explicit source list, overriding sampling.  Sources are sorted
        before evolution so ``tvd`` rows always align with the
        ``sources`` attribute of the returned profile.
    lazy:
        Evolve the lazy chain ``(I + P)/2`` instead of P, through its
        matrix; only an in-RAM :class:`Graph` has one.
    """
    lengths, chosen = _profile_inputs(graph, walk_lengths, num_sources, sources, seed)
    if not lazy:
        chain = graph
    elif isinstance(graph, Graph):
        chain = transition_matrix(graph, lazy=True)
    else:
        raise GraphError("the lazy chain needs an in-RAM Graph")
    tvd = batched_tvd_profile(chain, stationary_distribution(graph), chosen, lengths)
    return MixingProfile(walk_lengths=lengths, sources=chosen, tvd=tvd, lazy=lazy)


def mixing_time_from_profile(
    profile: MixingProfile, epsilon: float, aggregate: str = "max"
) -> int | None:
    """Return the smallest measured walk length with TVD below ``epsilon``.

    ``aggregate`` picks the curve: ``"max"`` matches Eq. (2)'s worst
    source, ``"mean"`` the average-source curve of Figure 1.  Returns
    None when no measured length achieves the threshold.
    """
    if aggregate == "max":
        curve = profile.max
    elif aggregate == "mean":
        curve = profile.mean
    elif aggregate == "min":
        curve = profile.min
    else:
        raise GraphError(f"unknown aggregate {aggregate!r}")
    below = np.flatnonzero(curve < epsilon)
    if below.size == 0:
        return None
    return int(profile.walk_lengths[below[0]])


def sampled_mixing_time(
    graph: Graph | ShardedGraph,
    epsilon: float | None = None,
    max_length: int = 200,
    num_sources: int = 100,
    seed: int = 0,
) -> int | None:
    """Estimate ``T(eps)`` by the sampling method.

    ``epsilon`` defaults to ``1/n``.  Returns None when the chain has
    not mixed within ``max_length`` steps (a slow-mixing verdict at this
    scale).
    """
    eps = 1.0 / graph.num_nodes if epsilon is None else epsilon
    profile = sampled_mixing_profile(
        graph,
        walk_lengths=np.arange(1, max_length + 1),
        num_sources=num_sources,
        seed=seed,
    )
    return mixing_time_from_profile(profile, eps, aggregate="max")


def is_fast_mixing(
    graph: Graph | ShardedGraph,
    constant: float = 4.0,
    num_sources: int = 50,
    seed: int = 0,
) -> bool:
    """Classify the graph as fast mixing per the O(log n) criterion.

    Checks whether the sampled worst-source mixing time at
    ``eps = 1/n`` is at most ``constant * log2(n)``.  The budget is
    clamped to at least one step so tiny graphs (where
    ``constant * log2(n)`` truncates to 0) still measure a one-step
    walk instead of crashing on an empty length grid.
    """
    budget = max(1, int(constant * np.log2(max(graph.num_nodes, 2))))
    measured = sampled_mixing_time(
        graph, max_length=budget, num_sources=num_sources, seed=seed
    )
    return measured is not None
