"""Mixing-time measurement: sampling method and spectral bounds."""

from repro.mixing.sampling import (
    MixingProfile,
    is_fast_mixing,
    mixing_time_from_profile,
    sampled_mixing_profile,
    sampled_mixing_time,
)
from repro.mixing.spectral import (
    PERIODIC_CHAIN,
    MixingBounds,
    mixing_bounds,
    normalized_adjacency,
    sinclair_bounds,
    slem,
    spectral_gap,
    spectral_summary,
)
from repro.mixing.trust import (
    ModulatedOperator,
    mixing_cost_of_trust,
    modulated_mixing_profile,
    modulated_transition_matrix,
)

__all__ = [
    "MixingProfile",
    "sampled_mixing_profile",
    "mixing_time_from_profile",
    "sampled_mixing_time",
    "is_fast_mixing",
    "slem",
    "spectral_gap",
    "normalized_adjacency",
    "MixingBounds",
    "sinclair_bounds",
    "mixing_bounds",
    "PERIODIC_CHAIN",
    "spectral_summary",
    "ModulatedOperator",
    "modulated_transition_matrix",
    "modulated_mixing_profile",
    "mixing_cost_of_trust",
]
