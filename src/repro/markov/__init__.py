"""Markov-chain substrate: transition matrices, walks and distances."""

from repro.markov.batch import (
    batched_tvd_profile,
    delta_block,
    evolve_block,
)
from repro.markov.walk_batch import (
    NO_HIT,
    walk_block,
    walk_endpoints,
    walk_first_hits,
    walk_visit_counts,
)
from repro.markov.distance import total_variation_distance
from repro.markov.transition import (
    clear_operator_cache,
    stationary_distribution,
    transition_matrix,
)

__all__ = [
    "transition_matrix",
    "stationary_distribution",
    "clear_operator_cache",
    "delta_block",
    "evolve_block",
    "batched_tvd_profile",
    "total_variation_distance",
    "NO_HIT",
    "walk_block",
    "walk_endpoints",
    "walk_first_hits",
    "walk_visit_counts",
]
