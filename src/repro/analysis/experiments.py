"""High-level experiment runners: one function per paper table/figure.

Each runner measures the relevant property over dataset analogs and
returns plain data structures; the scripts under ``benchmarks/`` wrap
them with pytest-benchmark and print the paper-shaped output.  They are
also the public "reproduce experiment N" API for library users.

The store-aware runners take their measurements from the stage
functions of :mod:`repro.pipeline` through :func:`repro.pipeline.measure`,
so ``store=`` caches them under the keys a pipeline run writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import spearman
from repro.chunking import sample_sources
from repro.cores.statistics import CoreStructure, core_structure
from repro.datasets import dataset_spec, load_dataset
from repro.expansion.envelope import (
    ExpansionSummary,
    aggregate_by_set_size,
    envelope_expansion,
    expansion_factor_series,
)
from repro.mixing.sampling import MixingProfile, sampled_mixing_profile
from repro.pipeline import (
    cores_stage,
    coreness_ecdf_stage,
    expansion_stage,
    gatekeeper_stage,
    measure,
    mixing_stage,
    slem_stage,
)
from repro.store import ArtifactStore
from repro.sybil.harness import DefenseOutcome

__all__ = [
    "DatasetSummary",
    "table1_dataset_summary",
    "figure1_mixing_profiles",
    "figure2_coreness_ecdfs",
    "table2_gatekeeper",
    "figure3_expansion_summaries",
    "figure4_expansion_factors",
    "figure5_core_structures",
    "mixing_core_correlation",
    "expansion_mixing_correlation",
    "betweenness_distributions",
    "mixing_heterogeneity",
]


@dataclass(frozen=True)
class DatasetSummary:
    """One Table-I row: analog sizes plus the measured SLEM."""

    name: str
    num_nodes: int
    num_edges: int
    slem: float
    paper_nodes: int
    paper_edges: int
    mixing_regime: str


def table1_dataset_summary(
    datasets: list[str],
    scale: float = 1.0,
    seed: int = 0,
    store: ArtifactStore | None = None,
) -> list[DatasetSummary]:
    """Measure Table I (n, m, second largest eigenvalue) per analog.

    ``store`` memoizes the per-graph SLEM through an artifact cache, so
    repeated sweeps over the same analogs are warm.
    """
    rows = []
    for name in datasets:
        spec = dataset_spec(name)
        graph = load_dataset(name, scale=scale, seed=seed)
        mu = measure(store, graph, slem_stage())
        rows.append(
            DatasetSummary(
                name=name,
                num_nodes=graph.num_nodes,
                num_edges=graph.num_edges,
                slem=mu,
                paper_nodes=spec.paper_nodes,
                paper_edges=spec.paper_edges,
                mixing_regime=spec.mixing_regime,
            )
        )
    return rows


def figure1_mixing_profiles(
    datasets: list[str],
    walk_lengths: list[int] | None = None,
    num_sources: int = 100,
    scale: float = 1.0,
    seed: int = 0,
    store: ArtifactStore | None = None,
) -> dict[str, MixingProfile]:
    """Measure Figure 1: sampled TVD-vs-walk-length per analog."""
    stage = mixing_stage(
        [1, 2, 3, 4, 5, 7, 10, 15, 20, 30, 40, 50]
        if walk_lengths is None
        else walk_lengths,
        num_sources,
        seed,
    )
    return {
        name: measure(store, load_dataset(name, scale=scale, seed=seed), stage)
        for name in datasets
    }


def figure2_coreness_ecdfs(
    datasets: list[str],
    scale: float = 1.0,
    seed: int = 0,
    store: ArtifactStore | None = None,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Measure Figure 2: coreness ECDF per analog."""
    out = {}
    for name in datasets:
        graph = load_dataset(name, scale=scale, seed=seed)
        ecdf = measure(store, graph, coreness_ecdf_stage())
        out[name] = (ecdf["values"], ecdf["fractions"])
    return out


def table2_gatekeeper(
    datasets: list[str] | None = None,
    attack_edges: dict[str, int] | None = None,
    admission_factors: list[float] | None = None,
    num_controllers: int = 3,
    scale: float = 1.0,
    seed: int = 0,
    store: ArtifactStore | None = None,
) -> list[DefenseOutcome]:
    """Run Table II: GateKeeper over the paper's four graphs.

    The paper uses Physics, Facebook, LiveJournal and Slashdot with a
    few hundred attack edges each; attack-edge counts scale with the
    analog sizes by default (:func:`repro.pipeline.gatekeeper_stage`),
    so a paper pipeline run with equal controllers and seed warms its row.
    """
    names = datasets or ["physics2", "facebook_a", "livejournal_a", "slashdot0811"]
    outcomes: list[DefenseOutcome] = []
    for name in names:
        stage = gatekeeper_stage(
            name,
            num_attack_edges=(attack_edges or {}).get(name),
            admission_factors=admission_factors,
            num_controllers=num_controllers,
            seed=seed,
        )
        outcomes.extend(
            measure(store, load_dataset(name, scale=scale, seed=seed), stage)
        )
    return outcomes


def figure3_expansion_summaries(
    datasets: list[str],
    num_sources: int | None = None,
    scale: float = 1.0,
    seed: int = 0,
    store: ArtifactStore | None = None,
) -> dict[str, ExpansionSummary]:
    """Measure Figure 3: min/mean/max |N(S)| per unique |S| per analog.

    ``num_sources=None`` uses every node as a core exactly as the paper
    does; pass a count to sample sources on the larger analogs.  Only
    the expensive :class:`ExpansionMeasurement` is memoized through
    ``store`` (the aggregation is cheap and recomputed).
    """
    stage = expansion_stage(num_sources, seed)
    return {
        name: aggregate_by_set_size(
            measure(store, load_dataset(name, scale=scale, seed=seed), stage)
        )
        for name in datasets
    }


def figure4_expansion_factors(
    datasets: list[str],
    num_sources: int | None = None,
    scale: float = 1.0,
    seed: int = 0,
    store: ArtifactStore | None = None,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Measure Figure 4: expected expansion factor vs |S| per analog."""
    stage = expansion_stage(num_sources, seed)
    return {
        name: expansion_factor_series(
            measure(store, load_dataset(name, scale=scale, seed=seed), stage)
        )
        for name in datasets
    }


def figure5_core_structures(
    datasets: list[str],
    scale: float = 1.0,
    seed: int = 0,
    store: ArtifactStore | None = None,
) -> dict[str, CoreStructure]:
    """Measure Figure 5: nu'_k and connected-core counts per analog."""
    return {
        name: measure(store, load_dataset(name, scale=scale, seed=seed), cores_stage())
        for name in datasets
    }


def _mixing_speed_score(profile: MixingProfile) -> float:
    """Scalar mixing speed: area under (1 - TVD) over walk length.

    Larger means faster mixing (TVD drops earlier).
    """
    return float(np.trapezoid(1.0 - profile.mean, profile.walk_lengths))


def mixing_core_correlation(
    datasets: list[str],
    scale: float = 1.0,
    num_sources: int = 50,
    seed: int = 0,
) -> tuple[float, dict[str, tuple[float, float]]]:
    """Ablation: rank-correlate mixing speed with core cohesion.

    The per-dataset core statistic is *single-core persistence*: the
    fraction of core orders k at which the k-core is still one connected
    component.  Fast mixers score 1.0 (one big core at every k, Figure
    5 f-j); slow mixers fragment early and score lower.  Returns
    ``(spearman, {name: (mixing_score, persistence)})``; the paper's
    Section V claim predicts a positive correlation.
    """
    scores: dict[str, tuple[float, float]] = {}
    for name in datasets:
        graph = load_dataset(name, scale=scale, seed=seed)
        profile = sampled_mixing_profile(
            graph,
            walk_lengths=[1, 2, 4, 8, 16, 32],
            num_sources=num_sources,
            seed=seed,
        )
        structure = core_structure(graph)
        persistence = float(np.mean(structure.num_cores == 1))
        scores[name] = (_mixing_speed_score(profile), persistence)
    values = np.array(list(scores.values()))
    return spearman(values[:, 0], values[:, 1]), scores


def expansion_mixing_correlation(
    datasets: list[str],
    scale: float = 1.0,
    num_sources: int = 50,
    seed: int = 0,
) -> tuple[float, dict[str, tuple[float, float]]]:
    """Ablation: rank-correlate expansion quality with mixing speed.

    Expansion quality is the mean expansion factor over envelopes of
    size <= n/2 (the Eq. 3 domain); Section V argues it is analogous to
    the mixing time.
    """
    scores: dict[str, tuple[float, float]] = {}
    for name in datasets:
        graph = load_dataset(name, scale=scale, seed=seed)
        profile = sampled_mixing_profile(
            graph,
            walk_lengths=[1, 2, 4, 8, 16, 32],
            num_sources=num_sources,
            seed=seed,
        )
        measurement = envelope_expansion(graph, num_sources=num_sources, seed=seed)
        half = graph.num_nodes // 2
        mask = measurement.set_sizes <= half
        factors = measurement.expansion_factors[mask]
        quality = float(factors.mean()) if factors.size else 0.0
        scores[name] = (quality, _mixing_speed_score(profile))
    values = np.array(list(scores.values()))
    return spearman(values[:, 0], values[:, 1]), scores


def betweenness_distributions(
    datasets: list[str],
    num_sources: int = 50,
    scale: float = 1.0,
    seed: int = 0,
) -> dict[str, dict[str, float]]:
    """Companion study: the distribution of shortest-path betweenness.

    The paper's introduction cites the authors' betweenness measurement
    (betweenness underpins the Quercia-Hailes Sybil defense and DTN
    routing).  Returns per-dataset summary statistics of the sampled
    betweenness distribution: mean, median, p99, max, and the Gini
    coefficient (how concentrated shortest paths are on few brokers —
    high for hub-routed fast mixers, lower for community meshes).
    """
    from repro.graph.centrality import betweenness_centrality

    out: dict[str, dict[str, float]] = {}
    rng = np.random.default_rng(seed)
    for name in datasets:
        graph = load_dataset(name, scale=scale, seed=seed)
        sources = sample_sources(rng, graph.num_nodes, num_sources, "num_sources")
        scores = betweenness_centrality(graph, sources=sources)
        ordered = np.sort(scores)
        n = ordered.size
        cumulative = np.cumsum(ordered)
        gini = float(
            (n + 1 - 2 * (cumulative / cumulative[-1]).sum()) / n
        ) if cumulative[-1] > 0 else 0.0
        out[name] = {
            "mean": float(scores.mean()),
            "median": float(np.median(scores)),
            "p99": float(np.percentile(scores, 99)),
            "max": float(scores.max()),
            "gini": gini,
        }
    return out


def mixing_heterogeneity(
    datasets: list[str],
    walk_length: int = 20,
    num_sources: int = 100,
    scale: float = 1.0,
    seed: int = 0,
) -> dict[str, dict[str, float]]:
    """Per-source mixing spread (the Section III motivation for sampling).

    The paper prefers the sampling method over the SLEM bound because
    the bound "accounts only for the poorest mixing source", hiding the
    richer per-source structure.  This experiment quantifies that
    structure: at a fixed walk length, the TVD distribution across
    sampled sources — min, median, p90, max and the max/min spread.
    Slow community graphs show a wide spread (sources inside tight
    communities mix far slower than bridge nodes); fast graphs are
    homogeneous.
    """
    out: dict[str, dict[str, float]] = {}
    for name in datasets:
        graph = load_dataset(name, scale=scale, seed=seed)
        profile = sampled_mixing_profile(
            graph,
            walk_lengths=[walk_length],
            num_sources=num_sources,
            seed=seed,
        )
        values = profile.tvd[:, 0]
        out[name] = {
            "min": float(values.min()),
            "median": float(np.median(values)),
            "p90": float(np.percentile(values, 90)),
            "max": float(values.max()),
            "spread": float(values.max() - values.min()),
        }
    return out
