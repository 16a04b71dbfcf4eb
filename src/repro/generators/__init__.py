"""Seeded synthetic graph generators used to build the dataset analogs."""

from repro.generators.classic import barabasi_albert, powerlaw_cluster_mixed
from repro.generators.community import community_social_graph
from repro.generators.interaction import interaction_graph, tie_strengths
from repro.generators.deterministic import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    lollipop_graph,
    path_graph,
    star_graph,
)

__all__ = [
    "barabasi_albert",
    "powerlaw_cluster_mixed",
    "community_social_graph",
    "cycle_graph",
    "path_graph",
    "complete_graph",
    "star_graph",
    "grid_graph",
    "barbell_graph",
    "lollipop_graph",
    "interaction_graph",
    "tie_strengths",
]
