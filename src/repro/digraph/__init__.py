"""Directed social graphs: substrate, non-reversible chains, generators
(the authors' directed-mixing follow-up direction)."""

from repro.digraph.chain import (
    directed_mixing_profile,
    directed_stationary,
    directed_transition_matrix,
)
from repro.digraph.core import DiGraph
from repro.digraph.generators import directed_preferential_attachment

__all__ = [
    "DiGraph",
    "directed_transition_matrix",
    "directed_stationary",
    "directed_mixing_profile",
    "directed_preferential_attachment",
]
