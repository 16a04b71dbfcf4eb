"""repro: reproduction of *Understanding Social Networks Properties for
Trustworthy Computing* (Mohaisen, Tran, Hopper, Kim — ICDCS-W/SIMPLEX
2011).

The library measures the three graph properties the paper connects —
mixing time, graph degeneracy (k-cores) and vertex expansion — over
synthetic analogs of the paper's social-graph benchmarks, and implements
ten social-network Sybil defenses those properties underwrite
(GateKeeper, SybilGuard, SybilLimit, SybilInfer, SumUp, SybilRank,
SybilDefender, the walk-probability ranking, SybilFrame and SybilFuse).

Quick start::

    from repro import load_dataset, sampled_mixing_profile, core_structure

    graph = load_dataset("wiki_vote")
    profile = sampled_mixing_profile(graph, num_sources=100)
    print(profile.mean)            # Figure-1 style TVD curve
    print(core_structure(graph))   # Figure-5 style core statistics

Subpackages
-----------
``repro.graph``      CSR graph substrate, traversal, metrics
``repro.generators`` seeded synthetic graph models
``repro.datasets``   Table-I analog registry
``repro.markov``     transition matrices, walks, distances
``repro.mixing``     mixing-time measurement (sampling + spectral)
``repro.cores``      k-core decomposition and core structure
``repro.expansion``  envelope expansion and general bounds
``repro.sybil``      attack model + ten Sybil defenses + harness
``repro.community``  community detection
``repro.analysis``   per-table/figure experiment runners
``repro.store``      content-addressed measurement artifact cache
``repro.pipeline``   declarative stage-DAG experiment runner
``repro.telemetry``  span/counter/gauge instrumentation registry
``repro.privacy``    link-privacy perturbation + privacy-utility frontier
``repro.chunking``   chunk planner + the one dispatcher of the batch engines
``repro.parallel``   process execution backend + shared-memory graph plane
``repro.oracles``    scalar reference twins of the batch engines (tests)
"""

from repro.analysis import (
    figure1_mixing_profiles,
    figure2_coreness_ecdfs,
    figure3_expansion_summaries,
    figure4_expansion_factors,
    figure5_core_structures,
    table1_dataset_summary,
    table2_gatekeeper,
)
from repro.cores import core_decomposition, core_structure, coreness_ecdf
from repro.datasets import (
    available_datasets,
    build_sharded_analog,
    dataset_spec,
    load_dataset,
)
from repro.errors import ReproError
from repro.expansion import envelope_expansion, expansion_factor_series
from repro.parallel import execution
from repro.graph import Graph, GraphBuilder, ShardedGraph
from repro.markov import total_variation_distance
from repro.mixing import sampled_mixing_profile, sampled_mixing_time, slem
from repro.pipeline import Pipeline, Stage, paper_measurement_pipeline
from repro.privacy import perturb_links, privacy_utility_frontier
from repro.store import ArtifactStore, graph_digest
from repro.sybil import (
    GateKeeper,
    SumUp,
    SybilGuard,
    SybilInfer,
    SybilLimit,
    inject_sybils,
    standard_attack,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "Graph",
    "GraphBuilder",
    "ShardedGraph",
    "build_sharded_analog",
    "available_datasets",
    "dataset_spec",
    "load_dataset",
    "total_variation_distance",
    "slem",
    "sampled_mixing_profile",
    "sampled_mixing_time",
    "core_decomposition",
    "core_structure",
    "coreness_ecdf",
    "envelope_expansion",
    "expansion_factor_series",
    "execution",
    "ArtifactStore",
    "graph_digest",
    "Pipeline",
    "Stage",
    "paper_measurement_pipeline",
    "perturb_links",
    "privacy_utility_frontier",
    "GateKeeper",
    "SybilGuard",
    "SybilLimit",
    "SybilInfer",
    "SumUp",
    "inject_sybils",
    "standard_attack",
    "table1_dataset_summary",
    "figure1_mixing_profiles",
    "figure2_coreness_ecdfs",
    "table2_gatekeeper",
    "figure3_expansion_summaries",
    "figure4_expansion_factors",
    "figure5_core_structures",
]
