"""Graph expansion: envelope measurement (Figs. 3-4) and general bounds."""

from repro.expansion.bounds import conductance, fiedler_vector, sweep_cut_expansion
from repro.expansion.envelope import (
    ExpansionMeasurement,
    ExpansionSummary,
    SourceExpansion,
    aggregate_by_set_size,
    envelope_expansion,
    expansion_factor_series,
    source_expansion,
)

__all__ = [
    "SourceExpansion",
    "source_expansion",
    "ExpansionMeasurement",
    "envelope_expansion",
    "ExpansionSummary",
    "aggregate_by_set_size",
    "expansion_factor_series",
    "conductance",
    "fiedler_vector",
    "sweep_cut_expansion",
]
