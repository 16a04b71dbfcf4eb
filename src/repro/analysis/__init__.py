"""Experiment runners (one per paper table/figure), stats and tables."""

from repro.analysis.experiments import (
    DatasetSummary,
    betweenness_distributions,
    expansion_mixing_correlation,
    figure1_mixing_profiles,
    figure2_coreness_ecdfs,
    figure3_expansion_summaries,
    figure4_expansion_factors,
    figure5_core_structures,
    mixing_core_correlation,
    mixing_heterogeneity,
    table1_dataset_summary,
    table2_gatekeeper,
)
from repro.analysis.ascii_plot import ascii_chart
from repro.analysis.persistence import register_result_type
from repro.analysis.report import measurement_report, telemetry_summary
from repro.analysis.stats import ecdf, spearman
from repro.analysis.tables import format_table

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
    "ecdf",
    "spearman",
    "format_table",
    "ascii_chart",
    "register_result_type",
    "measurement_report",
    "telemetry_summary",
]
